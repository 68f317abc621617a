//! The accounting protocol module (§3.2): transaction classification on
//! the accounting port, Call-ID attribution, and the cross-protocol
//! billing check against the SIP trail.

use crate::distill::DistillerConfig;
use crate::event::EventKind;
use crate::footprint::{AcctFootprint, Footprint, FootprintBody, PacketMeta};
use crate::proto::{AttributeCtx, GenCtx, ProtocolModule};
use crate::trail::{SessionKey, TrailKey};
use bytes::Bytes;

/// The accounting module. Owns [`FootprintBody::Acct`]; an accounting
/// transaction carries the billed Call-ID directly, which is what lets
/// the billing check join it against the SIP session.
#[derive(Debug, Default)]
pub struct AcctModule;

impl AcctModule {
    /// Creates the module.
    pub fn new() -> AcctModule {
        AcctModule
    }
}

impl ProtocolModule for AcctModule {
    fn name(&self) -> &'static str {
        "acct"
    }

    fn classify_priority(&self) -> u16 {
        // First: the accounting port consumes its traffic outright.
        10
    }

    fn fresh(&self) -> Box<dyn ProtocolModule> {
        Box::new(AcctModule)
    }

    fn owns(&self, body: &FootprintBody) -> bool {
        matches!(body, FootprintBody::Acct(_))
    }

    fn classify(
        &self,
        payload: &Bytes,
        meta: &PacketMeta,
        cfg: &DistillerConfig,
    ) -> Option<FootprintBody> {
        if meta.dst_port != cfg.acct_port {
            return None;
        }
        if let Some(acct) = std::str::from_utf8(payload)
            .ok()
            .and_then(|s| s.parse::<AcctFootprint>().ok())
        {
            return Some(FootprintBody::Acct(acct));
        }
        // The accounting port consumes what it cannot parse.
        Some(FootprintBody::UdpOther {
            payload_len: payload.len(),
        })
    }

    fn attribute(&self, fp: &Footprint, ctx: &mut AttributeCtx<'_>) -> SessionKey {
        match &fp.body {
            FootprintBody::Acct(acct) => ctx.intern(&acct.call_id),
            _ => ctx.synthetic("other", fp.meta.dst, None),
        }
    }

    fn generate(&mut self, fp: &Footprint, key: &TrailKey, ctx: &mut GenCtx<'_>) {
        let FootprintBody::Acct(acct) = &fp.body else {
            return;
        };
        if !(acct.start && ctx.config.cross_protocol) {
            return;
        }
        on_acct_start(fp, key, &acct.caller, &acct.call_id, ctx);
    }
}

fn on_acct_start(
    fp: &Footprint,
    key: &TrailKey,
    billed: &str,
    call_id: &str,
    ctx: &mut GenCtx<'_>,
) {
    let observed_caller = ctx
        .session_mut(&key.session, fp.meta.time)
        .and_then(|s| s.caller_aor.clone());
    let mismatch = observed_caller.as_deref() != Some(billed);
    if let Some(state) = ctx.session_mut(&key.session, fp.meta.time) {
        if state.acct_checked {
            return;
        }
        state.acct_checked = true;
    }
    if mismatch {
        ctx.emit(
            fp.meta.time,
            Some(key.session.clone()),
            EventKind::AcctMismatch {
                billed: billed.to_string(),
                observed_caller,
                call_id: call_id.to_string(),
            },
        );
    }
}
