//! The fallback protocol module: unclassifiable UDP, corrupt datagrams
//! and ICMP. It is the attribution catch-all — any footprint body no
//! registered module owns lands here — and generates the media-port
//! garbage events behind the §4.2.4 RTP-attack correlation.

use crate::event::EventKind;
use crate::footprint::{Footprint, FootprintBody};
use crate::proto::{AttributeCtx, GenCtx, ProtocolModule};
use crate::trail::{SessionKey, TrailKey};

/// The fallback module. Owns [`FootprintBody::UdpOther`],
/// [`FootprintBody::UdpCorrupt`] and [`FootprintBody::Icmp`]; every
/// [`crate::proto::ProtocolSet`] contains exactly one module owning
/// `UdpOther`, appended automatically when nothing registered does.
#[derive(Debug, Default)]
pub struct OtherModule;

impl OtherModule {
    /// Creates the module.
    pub fn new() -> OtherModule {
        OtherModule
    }
}

impl ProtocolModule for OtherModule {
    fn name(&self) -> &'static str {
        "other"
    }

    fn classify_priority(&self) -> u16 {
        // Last; and its classify declines everything anyway — the
        // registry's UdpOther fallback covers it.
        1000
    }

    fn fresh(&self) -> Box<dyn ProtocolModule> {
        Box::new(OtherModule)
    }

    fn owns(&self, body: &FootprintBody) -> bool {
        matches!(
            body,
            FootprintBody::UdpOther { .. }
                | FootprintBody::UdpCorrupt { .. }
                | FootprintBody::Icmp { .. }
        )
    }

    fn attribute(&self, fp: &Footprint, ctx: &mut AttributeCtx<'_>) -> SessionKey {
        // Garbage aimed at a known media sink belongs to that session
        // (that is how the RTP attack is correlated).
        match ctx.resolve_media(fp.meta.dst, fp.meta.dst_port) {
            Some(session) => session,
            None => ctx.synthetic("other", fp.meta.dst, None),
        }
    }

    fn generate(&mut self, fp: &Footprint, key: &TrailKey, ctx: &mut GenCtx<'_>) {
        match &fp.body {
            FootprintBody::UdpOther { .. } | FootprintBody::UdpCorrupt { .. } => {}
            _ => return,
        }
        if !ctx.config.cross_protocol {
            return;
        }
        // Garbage counts only when aimed at a sink some SDP announced.
        if ctx
            .trails
            .session_for_media(fp.meta.dst, fp.meta.dst_port)
            .is_none()
        {
            return;
        }
        // Rate-limit to one event per 10 packets to bound event volume.
        let state = ctx.session_entry(&key.session, fp.meta.time);
        let first_of_ten = state.garbage_emitted.is_multiple_of(10);
        state.garbage_emitted += 1;
        if !first_of_ten {
            return;
        }
        let reason = match &fp.body {
            FootprintBody::UdpCorrupt { reason } => reason.as_str().to_string(),
            _ => "undecodable media".to_string(),
        };
        let sink = (fp.meta.dst, fp.meta.dst_port);
        ctx.emit(
            fp.meta.time,
            Some(key.session.clone()),
            EventKind::MediaPortGarbage { sink, reason },
        );
    }
}
