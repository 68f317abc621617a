//! The shared session-routing layer.
//!
//! Two consumers need to answer "which session does this footprint
//! belong to?": the [`crate::trail::TrailStore`] (to file the footprint
//! into the right trail) and the sharded dispatcher of [`crate::shard`]
//! (to route the footprint to the worker owning that session's state).
//! Both answers must agree bit-for-bit, so the SDP-derived media
//! correlation index and the session-derivation rules live here, in one
//! place, and the trail store delegates to them.
//!
//! * [`MediaIndex`] — the `(sink address, port) → session` map learned
//!   from SDP bodies, the heart of cross-protocol correlation.
//! * [`MediaIndex::session_for`] — the canonical footprint → session
//!   derivation (Call-ID for SIP and accounting, media correlation for
//!   RTP/RTCP and garbage, synthetic keys otherwise).
//! * [`SessionRouter`] — session → shard assignment by a stable FNV-1a
//!   hash, identical for real and synthetic keys so chaos traffic
//!   spreads instead of hotspotting one worker.
//!
//! ## Index lifecycle
//!
//! The `(addr, port) → session` media map, the memoized synthetic keys
//! (`flow-*`, `other-*`, `sip-anon-*`, `sip-malformed-*`) and the
//! interned Call-IDs each live in an [`IdleMap`] with the trail store's
//! idle timeout (see [`crate::trail::TrailStoreConfig::idle_timeout`]),
//! under the map's one contract: before any access at `now`, every entry
//! idle for at least the timeout is gone; past
//! [`crate::idle::MAX_LIVE_ENTRIES`] a new key evicts the oldest, counted.
//! [`MediaIndex::session_for`] reclaims all three on every footprint, so
//! a cache the traffic stopped using still drains.
//!
//! * A dead call's media sink therefore cannot keep correlating new
//!   traffic to the dead session (a new call announcing the same sink
//!   overwrites the mapping at once; idle expiry reclaims the rest).
//! * Memoized and interned keys are pure caches: a key that expires is
//!   rebuilt on its next use, with the same text.
//!
//! For an in-order capture every read is exact: an entry reads as
//! absent exactly when it has been idle for the timeout, whichever
//! other keys an index has seen, so the trail store and the sharded
//! dispatcher agree bit-for-bit on every routing decision. A capture
//! that steps back gets the retain-every-access model of
//! [`crate::idle`]. Expiry is deliberately *not* tied to SIP teardown:
//! cross-protocol rules (the §4.2.1 forged-BYE check) depend on
//! correlating media that arrives *after* the BYE, so mappings outlive
//! the dialog and die only of idleness.

use crate::footprint::Footprint;
use crate::idle::{IdleMap, StoreGauge, DEFAULT_IDLE_TIMEOUT};
use crate::proto::{AttributeCtx, ProtocolSet};
use crate::trail::{text_hash, SessionKey};
use scidive_netsim::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// The media correlation index: media sinks announced by SDP, mapped to
/// the session that announced them — with idle-based lifecycle so the
/// maps plateau instead of growing forever.
///
/// # Examples
///
/// ```
/// use scidive_core::routing::MediaIndex;
/// use scidive_core::trail::SessionKey;
/// use scidive_netsim::time::SimTime;
/// use std::net::Ipv4Addr;
///
/// let mut index = MediaIndex::new();
/// let session = SessionKey::new("call-1");
/// index.learn_target(Ipv4Addr::new(10, 0, 0, 2), 8000, &session, SimTime::ZERO);
/// // The RTP port and its RTCP companion both resolve.
/// assert_eq!(index.resolve(Ipv4Addr::new(10, 0, 0, 2), 8000), Some(&session));
/// assert_eq!(index.resolve(Ipv4Addr::new(10, 0, 0, 2), 8001), Some(&session));
/// ```
#[derive(Debug, Clone)]
pub struct MediaIndex {
    map: IdleMap<(Ipv4Addr, u16), SessionKey>,
    /// Interns real session keys (Call-IDs), under their
    /// `text_hash`, so repeated footprints of the same
    /// session share one `Arc<str>` instead of re-allocating.
    interner: IdleMap<u64, SessionKey>,
    /// Memoized synthetic keys — `(prefix, addr, port)` → key — so the
    /// steady state of an uncorrelated flow stops paying `format!` +
    /// allocation per packet. One cache serves every protocol module's
    /// fallback prefix (`flow`, `other`, `sip-anon`, `sip-malformed`,
    /// and whatever extensions invent).
    synthetic: IdleMap<(&'static str, Ipv4Addr, Option<u16>), SessionKey>,
    /// The protocol registry attribution dispatches through.
    protocols: ProtocolSet,
}

impl Default for MediaIndex {
    fn default() -> MediaIndex {
        MediaIndex::with_protocols(DEFAULT_IDLE_TIMEOUT, ProtocolSet::default())
    }
}

impl MediaIndex {
    /// Creates an index with the default idle timeout (600 s, matching
    /// [`crate::trail::TrailStoreConfig::default`]).
    pub fn new() -> MediaIndex {
        MediaIndex::default()
    }

    /// Creates an index whose entries expire after `idle_timeout`
    /// without activity, attributing through the given protocol
    /// registry. Both consumers of the keying rule (trail store,
    /// dispatcher) must use the same timeout and registry or their
    /// routing diverges.
    pub fn with_protocols(idle_timeout: SimDuration, protocols: ProtocolSet) -> MediaIndex {
        MediaIndex {
            map: IdleMap::new(idle_timeout),
            interner: IdleMap::new(idle_timeout),
            synthetic: IdleMap::new(idle_timeout),
            protocols,
        }
    }

    /// Number of mapped (address, port) sinks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing has been learned yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of distinct interned session keys.
    pub fn interner_len(&self) -> usize {
        self.interner.len()
    }

    /// Size and lifecycle counters of the media map, the interner and
    /// the synthetic-key memo, in that order.
    pub fn gauges(&self) -> [StoreGauge; 3] {
        [
            self.map.gauge(),
            self.interner.gauge(),
            self.synthetic.gauge(),
        ]
    }

    /// The session owning a media sink, if any SDP announced it.
    ///
    /// This is the raw map lookup — it ignores idle staleness and does
    /// not refresh activity. The keying path ([`MediaIndex::session_for`])
    /// reads through the lifecycle rule instead.
    pub fn resolve(&self, addr: Ipv4Addr, port: u16) -> Option<&SessionKey> {
        self.map.peek(&(addr, port))
    }

    /// Resolves a media sink at `now` under the lifecycle rule: an entry
    /// idle for the timeout reads as absent; a live entry is refreshed.
    pub(crate) fn resolve_fresh(
        &mut self,
        addr: Ipv4Addr,
        port: u16,
        now: SimTime,
    ) -> Option<SessionKey> {
        self.map.get_mut(&(addr, port), now).cloned()
    }

    /// Records a negotiated RTP target (and its RTCP companion port)
    /// as belonging to `session`, active as of `now`. A sink previously
    /// owned by another (possibly dead) session is overwritten — the
    /// newest announcement wins.
    pub fn learn_target(&mut self, addr: Ipv4Addr, port: u16, session: &SessionKey, now: SimTime) {
        self.map.insert((addr, port), session.clone(), now);
        // RTCP companion port.
        self.map.insert((addr, port + 1), session.clone(), now);
    }

    /// Learns correlation state a footprint announces (SDP media sinks,
    /// gateway-control connections), by dispatching to the protocol
    /// module owning its body; returns `true` if anything was learned.
    pub fn learn_from(&mut self, fp: &Footprint, session: &SessionKey) -> bool {
        let now = fp.meta.time;
        // Arc refcount bump: lets the module borrow the index mutably
        // through the context while the registry is iterated.
        let protocols = self.protocols.clone();
        protocols
            .module_for(&fp.body)
            .learn(fp, session, &mut AttributeCtx { now, index: self })
    }

    /// Derives the session a footprint belongs to — the single
    /// canonical keying rule shared by the trail store and the sharded
    /// dispatcher, dispatched to the protocol module owning the
    /// footprint's body (see [`crate::proto::ProtocolModule::attribute`]):
    ///
    /// * SIP keys by Call-ID (`sip-anon-{src}` when absent);
    /// * unparseable SIP keys by `sip-malformed-{src}`;
    /// * accounting transactions carry the Call-ID directly;
    /// * RTP/RTCP resolve through this index (RTCP on the companion
    ///   port), falling back to a synthetic `flow-{dst}:{port}` key;
    /// * other UDP/ICMP aimed at a known media sink joins that session,
    ///   falling back to `other-{dst}`;
    /// * bodies of unregistered extension protocols fall back to the
    ///   module owning `UdpOther`.
    ///
    /// Real and synthetic keys alike are memoized: the first packet of a
    /// session pays one key construction, every later packet gets a
    /// cheap clone of the shared key. Every use refreshes the entry it
    /// reads; entries idle for the timeout read as absent, and every
    /// call drops them from all three maps, read or not.
    pub fn session_for(&mut self, fp: &Footprint) -> SessionKey {
        let now = fp.meta.time;
        self.map.reclaim(now);
        self.interner.reclaim(now);
        self.synthetic.reclaim(now);
        let protocols = self.protocols.clone();
        protocols
            .module_for(&fp.body)
            .attribute(fp, &mut AttributeCtx { now, index: self })
    }

    /// Interns a real session identifier, stamping it active at `now`.
    pub(crate) fn intern_key(&mut self, id: &str, now: SimTime) -> SessionKey {
        let key = self
            .interner
            .get_or_insert_with(text_hash(id), now, || SessionKey::new(id));
        if key.as_str() == id {
            key.clone()
        } else {
            // Two texts sharing a 64-bit keyed hash: the second is not
            // interned.
            SessionKey::new(id)
        }
    }

    /// The memoized synthetic key for `(prefix, addr, port)`:
    /// `"{prefix}-{addr}:{port}"`, or `"{prefix}-{addr}"` without a
    /// port. Construction forces the synthetic flag, so extension
    /// modules' prefixes route like the built-in ones.
    pub(crate) fn synthetic_key(
        &mut self,
        prefix: &'static str,
        addr: Ipv4Addr,
        port: Option<u16>,
        now: SimTime,
    ) -> SessionKey {
        self.synthetic
            .get_or_insert_with((prefix, addr, port), now, || match port {
                Some(port) => SessionKey::synthetic(format!("{prefix}-{addr}:{port}")),
                None => SessionKey::synthetic(format!("{prefix}-{addr}")),
            })
            .clone()
    }
}

/// Whether a session key is synthetic: manufactured for traffic that
/// could not be correlated to any signalled session (unmatched media
/// flows, stray UDP, anonymous or unparseable SIP).
pub fn is_synthetic(session: &SessionKey) -> bool {
    // The prefix check runs once, at key construction; this reads the
    // memoized flag.
    session.is_synthetic()
}

/// A stable 64-bit FNV-1a hash of the session key. Independent of
/// platform, process, and `HashMap` seeding — the same session always
/// hashes identically, which is what makes shard assignment (and hence
/// the merged alert stream) reproducible across runs and shard counts.
///
/// Computed once at key construction and memoized, so per-packet shard
/// assignment is a field read, not a rehash.
pub fn stable_session_hash(session: &SessionKey) -> u64 {
    session.stable_hash()
}

/// Where the router decided a footprint goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteDecision {
    /// The resolved session.
    pub session: SessionKey,
    /// The shard that owns the session's state.
    pub shard: usize,
    /// Whether the footprint's session is synthetic (unmatched media or
    /// uncorrelatable traffic). Counted by the dispatcher; synthetic
    /// sessions spread across shards by the same stable hash as real
    /// ones.
    pub overflow: bool,
}

/// The dispatcher's session router: resolves each footprint to its
/// session (maintaining the media index in arrival order, exactly as a
/// single engine would) and assigns it a shard.
///
/// All sessions — real and synthetic — are spread by
/// [`stable_session_hash`], so chaos/garbage traffic cannot hotspot a
/// single worker: each synthetic flow is its own session and sticks to
/// its hashed shard for its whole life, preserving shard-count
/// invariance. Only session-less frames (fragments still reassembling)
/// fall to the designated [`SessionRouter::overflow_shard`], purely so
/// frame counters stay conserved.
#[derive(Debug)]
pub struct SessionRouter {
    index: MediaIndex,
    shards: usize,
}

impl SessionRouter {
    /// Creates a router dispatching over `shards` workers, with the
    /// default index idle timeout.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> SessionRouter {
        SessionRouter::with_protocols(shards, DEFAULT_IDLE_TIMEOUT, ProtocolSet::default())
    }

    /// Creates a router whose index expires entries after
    /// `idle_timeout` and attributes through `protocols` — pass the
    /// workers' trail-store timeout and registry, or the two views of
    /// the keying rule diverge.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_protocols(
        shards: usize,
        idle_timeout: SimDuration,
        protocols: ProtocolSet,
    ) -> SessionRouter {
        assert!(shards >= 1, "a sharded pipeline needs at least one shard");
        SessionRouter {
            index: MediaIndex::with_protocols(idle_timeout, protocols),
            shards,
        }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard that receives session-less frames (fragments still
    /// reassembling, which carry no footprint and hence no session).
    /// Synthetic *sessions* do not land here — they spread by hash.
    pub fn overflow_shard(&self) -> usize {
        0
    }

    /// Read access to the media index.
    pub fn index(&self) -> &MediaIndex {
        &self.index
    }

    /// The shard a session maps to, without touching the index.
    pub fn shard_of(&self, session: &SessionKey) -> usize {
        (stable_session_hash(session) % self.shards as u64) as usize
    }

    /// Routes one footprint: resolves its session, learns any SDP it
    /// carries (keeping the index in lock-step with what a single
    /// engine's trail store would know), and picks the shard.
    pub fn route(&mut self, fp: &Footprint) -> RouteDecision {
        let session = self.index.session_for(fp);
        self.index.learn_from(fp, &session);
        let shard = self.shard_of(&session);
        RouteDecision {
            overflow: is_synthetic(&session),
            session,
            shard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::{FootprintBody, PacketMeta, SipFootprint};
    use scidive_netsim::time::SimTime;
    use scidive_sip::sdp::SessionDescription;
    use scidive_rtp::packet::RtpHeader;
    use scidive_sip::header::{CSeq, NameAddr, Via};
    use scidive_sip::method::Method;
    use scidive_sip::msg::RequestBuilder;

    fn meta_at(t: u64, dst: [u8; 4], dport: u16) -> PacketMeta {
        PacketMeta {
            time: SimTime::from_millis(t),
            src: Ipv4Addr::new(10, 0, 0, 2),
            src_port: 5060,
            dst: dst.into(),
            dst_port: dport,
        }
    }

    fn invite_with_sdp(call_id: &str, media_ip: [u8; 4], port: u16) -> Footprint {
        invite_with_sdp_at(1, call_id, media_ip, port)
    }

    fn invite_with_sdp_at(t: u64, call_id: &str, media_ip: [u8; 4], port: u16) -> Footprint {
        let sdp = SessionDescription::audio_offer("alice", media_ip.into(), port);
        let mut b = RequestBuilder::new(Method::Invite, "sip:bob@lab".parse().unwrap());
        b.from(NameAddr::new("sip:alice@lab".parse().unwrap()).with_tag("a"))
            .to(NameAddr::new("sip:bob@lab".parse().unwrap()))
            .call_id(call_id)
            .cseq(CSeq::new(1, Method::Invite))
            .via(Via::udp("10.0.0.2:5060", "z9hG4bK-r"))
            .body("application/sdp", sdp.to_string());
        Footprint {
            meta: meta_at(t, [10, 0, 0, 1], 5060),
            body: FootprintBody::Sip(SipFootprint::parse(b.build().to_bytes()).unwrap()),
        }
    }

    fn rtp_to(dst: [u8; 4], dport: u16) -> Footprint {
        rtp_to_at(1, dst, dport)
    }

    fn rtp_to_at(t: u64, dst: [u8; 4], dport: u16) -> Footprint {
        Footprint {
            meta: meta_at(t, dst, dport),
            body: FootprintBody::Rtp {
                header: RtpHeader::new(96, 7, 100, 0xabcd),
                payload_len: 160,
            },
        }
    }

    #[test]
    fn router_agrees_with_trail_store_keying() {
        use crate::trail::{TrailStore, TrailStoreConfig};
        let mut router = SessionRouter::new(4);
        let mut store = TrailStore::new(TrailStoreConfig::default());
        let frames = vec![
            invite_with_sdp("c1", [10, 0, 0, 3], 8000),
            rtp_to([10, 0, 0, 3], 8000),
            rtp_to([10, 0, 0, 9], 9000),
        ];
        for fp in frames {
            let decision = router.route(&fp);
            let (_, key) = store.insert(fp);
            assert_eq!(decision.session, key.session);
        }
    }

    #[test]
    fn matched_media_follows_its_sip_session() {
        let mut router = SessionRouter::new(8);
        let sip = router.route(&invite_with_sdp("c1", [10, 0, 0, 3], 8000));
        let rtp = router.route(&rtp_to([10, 0, 0, 3], 8000));
        let rtcp = router.route(&rtp_to([10, 0, 0, 3], 8000)); // same flow again
        assert_eq!(sip.session, SessionKey::new("c1"));
        assert_eq!(rtp.session, sip.session);
        assert_eq!(rtp.shard, sip.shard);
        assert_eq!(rtcp.shard, sip.shard);
        assert!(!rtp.overflow);
    }

    #[test]
    fn unmatched_media_is_synthetic_and_spreads_by_hash() {
        let mut router = SessionRouter::new(8);
        let mut shards = std::collections::HashSet::new();
        for i in 0..32u16 {
            let decision = router.route(&rtp_to([10, 0, 0, 9], 9000 + i * 2));
            assert!(decision.overflow);
            assert!(is_synthetic(&decision.session));
            // Stable: the same flow re-resolves to the same shard.
            assert_eq!(decision.shard, router.shard_of(&decision.session));
            shards.insert(decision.shard);
        }
        // 32 distinct flows must not hotspot one worker.
        assert!(
            shards.len() > 1,
            "synthetic sessions all routed to one shard: {shards:?}"
        );
    }

    #[test]
    fn hash_is_stable_and_spreads() {
        let a = stable_session_hash(&SessionKey::new("call-a"));
        assert_eq!(a, stable_session_hash(&SessionKey::new("call-a")));
        // Distinct keys should not trivially collide.
        let hits: std::collections::HashSet<u64> = (0..100)
            .map(|i| stable_session_hash(&SessionKey::new(format!("call-{i}"))))
            .collect();
        assert!(hits.len() > 90);
        // And across 4 shards, 100 sessions should use every shard.
        let router = SessionRouter::new(4);
        let shards: std::collections::HashSet<usize> = (0..100)
            .map(|i| router.shard_of(&SessionKey::new(format!("call-{i}"))))
            .collect();
        assert_eq!(shards.len(), 4);
    }

    #[test]
    fn routing_is_deterministic() {
        let mk = || {
            let mut router = SessionRouter::new(7);
            vec![
                router.route(&invite_with_sdp("c1", [10, 0, 0, 3], 8000)),
                router.route(&rtp_to([10, 0, 0, 3], 8000)),
                router.route(&rtp_to([10, 0, 0, 9], 9000)),
            ]
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn idle_media_mapping_expires_exactly() {
        let timeout = SimDuration::from_secs(10);
        let mut index = MediaIndex::with_protocols(timeout, ProtocolSet::default());
        let mut fp = invite_with_sdp_at(0, "c1", [10, 0, 0, 3], 8000);
        fp.meta.time = SimTime::ZERO;
        let session = index.session_for(&fp);
        index.learn_from(&fp, &session);
        // Within the timeout the sink still correlates...
        assert_eq!(
            index.session_for(&rtp_to_at(9_999, [10, 0, 0, 3], 8000)),
            SessionKey::new("c1")
        );
        // ...and the activity refreshed the entry, extending its life.
        assert_eq!(
            index.session_for(&rtp_to_at(19_000, [10, 0, 0, 3], 8000)),
            SessionKey::new("c1")
        );
        // 10 full seconds of silence kill it — exactly at the boundary.
        let late = index.session_for(&rtp_to_at(29_000, [10, 0, 0, 3], 8000));
        assert_eq!(late, SessionKey::new("flow-10.0.0.3:8000"));
        assert_eq!(index.gauges()[0].expired, 2, "the sink and its RTCP port");
    }

    #[test]
    fn memo_caches_and_interner_are_swept() {
        let timeout = SimDuration::from_secs(10);
        let mut index = MediaIndex::with_protocols(timeout, ProtocolSet::default());
        // 20 distinct uncorrelated flows + 5 interned Call-IDs.
        for i in 0..20u16 {
            index.session_for(&rtp_to_at(u64::from(i), [10, 0, 0, 9], 9000 + i));
        }
        for i in 0..5 {
            index.session_for(&invite_with_sdp_at(i, &format!("c{i}"), [10, 0, 0, 3], 8000));
        }
        assert_eq!(index.gauges()[2].live, 20);
        assert_eq!(index.interner_len(), 5);
        // A packet far past the timeout triggers the sweep; the idle
        // caches drain instead of growing forever.
        index.session_for(&rtp_to_at(60_000, [10, 0, 0, 9], 9999));
        let [_, interner, synthetic] = index.gauges();
        assert_eq!(synthetic.live, 1, "only the live flow survives");
        assert_eq!(index.interner_len(), 0);
        assert!(synthetic.expired >= 20);
        assert_eq!(interner.expired, 5);
    }

    #[test]
    fn repeated_call_ids_share_one_interned_key() {
        let mut index = MediaIndex::new();
        let a = index.session_for(&invite_with_sdp_at(0, "c1", [10, 0, 0, 3], 8000));
        let b = index.session_for(&invite_with_sdp_at(5, "c1", [10, 0, 0, 3], 8000));
        assert_eq!(a, b);
        assert_eq!(a.as_str().as_ptr(), b.as_str().as_ptr(), "one allocation");
        assert_eq!(index.interner_len(), 1);
    }

    #[test]
    fn new_announcement_overwrites_dead_owner() {
        let mut index = MediaIndex::new();
        let fp1 = invite_with_sdp_at(0, "call-1", [10, 0, 0, 3], 8000);
        let s1 = index.session_for(&fp1);
        index.learn_from(&fp1, &s1);
        // A later call re-announces the same sink: newest wins, even
        // with the first mapping still inside its idle window.
        let fp2 = invite_with_sdp_at(5_000, "call-2", [10, 0, 0, 3], 8000);
        let s2 = index.session_for(&fp2);
        index.learn_from(&fp2, &s2);
        assert_eq!(
            index.session_for(&rtp_to_at(6_000, [10, 0, 0, 3], 8000)),
            SessionKey::new("call-2")
        );
    }
}
