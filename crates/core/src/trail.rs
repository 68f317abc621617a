//! Trails and the trail store (paper §3.1, §3.2).
//!
//! "Footprints that belong to the same session are typically grouped
//! into a Trail. ... cross-protocol detection is achieved through
//! keeping multiple trails for each session, one for each protocol."
//!
//! Session keying: SIP footprints key by Call-ID; accounting
//! transactions carry the Call-ID directly; RTP/RTCP flows are linked to
//! the SIP session whose SDP announced their destination. The keying
//! rules and the media correlation index itself live in
//! [`crate::routing`] (they are shared with the sharded dispatcher);
//! the store here applies them to file footprints into trails, which
//! count them rather than retain them (see [`Trail`]).
//!
//! Bounded state (paper §3.3): the trails live in an
//! [`crate::idle::IdleMap`], so before each insert every trail idle for
//! at least [`TrailStoreConfig::idle_timeout`] is gone, and past
//! [`crate::idle::MAX_LIVE_ENTRIES`] a new trail evicts the one with
//! the oldest `last_active` (counted in [`TrailStats::evicted_trails`]).
//! Caps are per store, so the sharded pipeline agrees with one engine
//! only while every shard stays below the cap.

use crate::footprint::{Footprint, TrailProto};
use crate::idle::{IdleMap, DEFAULT_IDLE_TIMEOUT};
use crate::routing::MediaIndex;
use scidive_netsim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Identifies a logical session (usually a SIP Call-ID).
///
/// The key text lives behind a shared `Arc<str>`, so cloning — which the
/// hot path does for every footprint routed, filed, and alerted on — is
/// a reference-count bump, not a string copy. The stable FNV-1a hash
/// used for shard assignment and the synthetic-key flag are computed
/// once at construction and memoized, so shard assignment never rehashes.
///
/// Equality and ordering are by string content (with a pointer-equality
/// fast path), and `Hash` feeds a map the memoized `text_hash` of it,
/// so interned and freshly built keys with the same text behave
/// identically in maps and comparisons, and no map lookup, expiry
/// included, rereads the text.
#[derive(Debug, Clone)]
pub struct SessionKey {
    id: Arc<str>,
    /// Memoized stable FNV-1a hash of `id` (see
    /// [`crate::routing::stable_session_hash`]).
    fnv: u64,
    /// Memoized `text_hash` of `id`.
    hash: u64,
    /// Memoized "is this a synthetic key" prefix check (see
    /// [`crate::routing::is_synthetic`]).
    synthetic: bool,
}

impl SessionKey {
    /// Creates a key, computing the memoized hash and synthetic flag.
    pub fn new(id: impl AsRef<str>) -> SessionKey {
        SessionKey::from_arc(Arc::from(id.as_ref()))
    }

    /// Creates a key that is flagged synthetic regardless of its text.
    /// Protocol modules manufacturing fallback keys outside the
    /// built-in synthetic prefixes use this so overflow accounting and
    /// shard routing still recognize the key as unattributed.
    pub fn synthetic(id: impl AsRef<str>) -> SessionKey {
        let mut key = SessionKey::new(id);
        key.synthetic = true;
        key
    }

    /// Builds a key around an already-shared string (no copy).
    pub fn from_arc(id: Arc<str>) -> SessionKey {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut fnv = FNV_OFFSET;
        for byte in id.as_bytes() {
            fnv ^= u64::from(*byte);
            fnv = fnv.wrapping_mul(FNV_PRIME);
        }
        let synthetic = id.starts_with("flow-")
            || id.starts_with("other-")
            || id.starts_with("sip-anon-")
            || id.starts_with("sip-malformed-");
        let hash = text_hash(&id);
        SessionKey {
            id,
            fnv,
            hash,
            synthetic,
        }
    }

    /// The key text.
    pub fn as_str(&self) -> &str {
        &self.id
    }

    /// The memoized stable FNV-1a hash (platform- and run-independent).
    pub fn stable_hash(&self) -> u64 {
        self.fnv
    }

    /// Whether the key is synthetic: manufactured for traffic that could
    /// not be correlated to any signalled session.
    pub fn is_synthetic(&self) -> bool {
        self.synthetic
    }
}

impl PartialEq for SessionKey {
    fn eq(&self, other: &SessionKey) -> bool {
        // Interned keys share the Arc, so most comparisons are a
        // pointer check; the hash filters almost all of the rest.
        Arc::ptr_eq(&self.id, &other.id) || (self.fnv == other.fnv && self.id == other.id)
    }
}

impl Eq for SessionKey {}

impl PartialOrd for SessionKey {
    fn partial_cmp(&self, other: &SessionKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SessionKey {
    fn cmp(&self, other: &SessionKey) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl std::hash::Hash for SessionKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A hash of session-key text under a per-process random key, as
/// `HashMap`'s own hasher is keyed: crafted Call-IDs cannot be made to
/// collide on purpose.
pub(crate) fn text_hash(text: &str) -> u64 {
    static KEY: std::sync::OnceLock<std::collections::hash_map::RandomState> =
        std::sync::OnceLock::new();
    std::hash::BuildHasher::hash_one(KEY.get_or_init(Default::default), text)
}

impl Serialize for SessionKey {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for SessionKey {
    fn from_value(v: &serde::Value) -> Result<SessionKey, serde::DeError> {
        match v {
            serde::Value::Str(s) => Ok(SessionKey::new(s)),
            other => Err(serde::DeError::expected("string", other)),
        }
    }
}

impl fmt::Display for SessionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Identifies one trail: a session × protocol pair.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TrailKey {
    /// The owning session.
    pub session: SessionKey,
    /// The protocol this trail collects.
    pub proto: TrailProto,
}

/// One trail: the summary of a session's footprints on one protocol.
///
/// A trail records when it was opened, when a footprint last landed in
/// it and how many have; the footprints themselves go back to the
/// caller of [`TrailStore::insert`], and the events the Event Generator
/// condenses from them carry everything a rule reads.
#[derive(Debug, Clone)]
pub struct Trail {
    key: TrailKey,
    created: SimTime,
    last_active: SimTime,
    len: usize,
}

impl Trail {
    /// The trail's key.
    pub fn key(&self) -> &TrailKey {
        &self.key
    }

    /// Number of footprints filed into the trail.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no footprint has been filed (never, for a live trail).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// When the trail was created.
    pub fn created(&self) -> SimTime {
        self.created
    }

    /// The latest insert's time, even when the capture stepped back.
    pub fn last_active(&self) -> SimTime {
        self.last_active
    }
}

/// Trail store configuration: the memory bounds that make stateful
/// detection "applicable in high throughput systems" (paper §3.3).
#[derive(Debug, Clone)]
pub struct TrailStoreConfig {
    /// Ignored: trails retain no footprints. Kept only because the
    /// repo benchmark still sets it.
    pub max_footprints_per_trail: usize,
    /// Trails idle for this long or longer (`now - last_active ≥
    /// idle_timeout`) are dropped on the next insert.
    pub idle_timeout: SimDuration,
}

impl Default for TrailStoreConfig {
    fn default() -> TrailStoreConfig {
        TrailStoreConfig {
            max_footprints_per_trail: 4096,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
        }
    }
}

/// Counters for the trail store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrailStats {
    /// Footprints inserted.
    pub inserted: u64,
    /// Always 0: trails retain no footprints to evict. Kept only
    /// because the repo benchmark still reads it.
    pub evicted: u64,
    /// Whole trails expired by the idle timeout.
    pub expired_trails: u64,
    /// Whole trails evicted, oldest `last_active` first, to keep the
    /// live count at [`crate::idle::MAX_LIVE_ENTRIES`].
    pub evicted_trails: u64,
}

/// The trail store: all live trails plus the cross-protocol correlation
/// indices.
#[derive(Debug)]
pub struct TrailStore {
    trails: IdleMap<TrailKey, Trail>,
    /// (media sink addr, port) → owning session, learned from SDP.
    media_index: MediaIndex,
    /// Footprints inserted.
    inserted: u64,
}

impl Default for TrailStore {
    fn default() -> TrailStore {
        TrailStore::new(TrailStoreConfig::default())
    }
}

impl TrailStore {
    /// Creates a store with the default protocol registry.
    pub fn new(config: TrailStoreConfig) -> TrailStore {
        TrailStore::with_protocols(config, crate::proto::ProtocolSet::default())
    }

    /// Creates a store whose session attribution runs through the given
    /// protocol registry.
    pub fn with_protocols(
        config: TrailStoreConfig,
        protocols: crate::proto::ProtocolSet,
    ) -> TrailStore {
        TrailStore {
            media_index: MediaIndex::with_protocols(config.idle_timeout, protocols),
            trails: IdleMap::new(config.idle_timeout),
            inserted: 0,
        }
    }

    /// The same store with a smaller live-trail cap.
    #[cfg(test)]
    pub(crate) fn with_trail_cap(mut self, cap: usize) -> TrailStore {
        self.trails = self.trails.with_cap(cap);
        self
    }

    /// Current counters.
    pub fn stats(&self) -> TrailStats {
        let gauge = self.trails.gauge();
        TrailStats {
            inserted: self.inserted,
            evicted: 0,
            expired_trails: gauge.expired,
            evicted_trails: gauge.evicted,
        }
    }

    /// The trail map's size and lifecycle counters.
    pub fn gauge(&self) -> crate::idle::StoreGauge {
        self.trails.gauge()
    }

    /// Number of live trails.
    pub fn trail_count(&self) -> usize {
        self.trails.len()
    }

    /// Always 0: trails retain no footprints. Kept only because the
    /// repo benchmark still reads it.
    pub fn footprint_count(&self) -> usize {
        0
    }

    /// The session owning a media sink, if announced by any SDP seen.
    pub fn session_for_media(&self, addr: Ipv4Addr, port: u16) -> Option<&SessionKey> {
        self.media_index.resolve(addr, port)
    }

    /// Read access to the media correlation index.
    pub fn media_index(&self) -> &MediaIndex {
        &self.media_index
    }

    /// A trail by key, for the "crude information directly from the
    /// Trails" access path the paper describes for rules.
    pub fn trail(&self, key: &TrailKey) -> Option<&Trail> {
        self.trails.peek(key)
    }

    /// All trails of one session.
    pub fn session_trails(&self, session: &SessionKey) -> Vec<&Trail> {
        let mut trails: Vec<&Trail> = self
            .trails
            .iter()
            .map(|(_, t)| t)
            .filter(|t| &t.key.session == session)
            .collect();
        trails.sort_by_key(|t| t.key.proto);
        trails
    }

    /// Files a footprint into its session trail. Returns the footprint,
    /// for the Event Generator, and the trail key it landed in.
    pub fn insert(&mut self, fp: Footprint) -> (Footprint, TrailKey) {
        let now = fp.meta.time;
        let session = self.media_index.session_for(&fp);
        self.media_index.learn_from(&fp, &session);
        let key = TrailKey {
            session,
            proto: fp.proto(),
        };
        let trail = self.trails.get_or_insert_with(key.clone(), now, || Trail {
            key: key.clone(),
            created: now,
            last_active: now,
            len: 0,
        });
        trail.len += 1;
        trail.last_active = now;
        self.inserted += 1;
        (fp, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::{FootprintBody, PacketMeta, SipFootprint};
    use scidive_rtp::packet::RtpHeader;
    use scidive_sip::sdp::SessionDescription;
    use scidive_sip::header::{CSeq, NameAddr, Via};
    use scidive_sip::method::Method;
    use scidive_sip::msg::RequestBuilder;

    fn meta(t: u64, src: [u8; 4], sport: u16, dst: [u8; 4], dport: u16) -> PacketMeta {
        PacketMeta {
            time: SimTime::from_millis(t),
            src: src.into(),
            src_port: sport,
            dst: dst.into(),
            dst_port: dport,
        }
    }

    fn invite_with_sdp(call_id: &str, media_ip: [u8; 4], port: u16) -> Footprint {
        let sdp = SessionDescription::audio_offer("alice", media_ip.into(), port);
        let mut b = RequestBuilder::new(Method::Invite, "sip:bob@lab".parse().unwrap());
        b.from(NameAddr::new("sip:alice@lab".parse().unwrap()).with_tag("a"))
            .to(NameAddr::new("sip:bob@lab".parse().unwrap()))
            .call_id(call_id)
            .cseq(CSeq::new(1, Method::Invite))
            .via(Via::udp("10.0.0.2:5060", "z9hG4bK-t"))
            .body("application/sdp", sdp.to_string());
        Footprint {
            meta: meta(0, [10, 0, 0, 2], 5060, [10, 0, 0, 1], 5060),
            body: FootprintBody::Sip(SipFootprint::parse(b.build().to_bytes()).unwrap()),
        }
    }

    fn rtp_to(dst: [u8; 4], port: u16, t: u64) -> Footprint {
        Footprint {
            meta: meta(t, [10, 0, 0, 3], 9000, dst, port),
            body: FootprintBody::Rtp {
                header: RtpHeader::new(0, 1, 0, 7),
                payload_len: 160,
            },
        }
    }

    #[test]
    fn sip_groups_by_call_id() {
        let mut store = TrailStore::new(TrailStoreConfig::default());
        let (_, k1) = store.insert(invite_with_sdp("c1", [10, 0, 0, 2], 8000));
        let (_, k2) = store.insert(invite_with_sdp("c1", [10, 0, 0, 2], 8000));
        let (_, k3) = store.insert(invite_with_sdp("c2", [10, 0, 0, 2], 8100));
        assert_eq!(k1, k2);
        assert_ne!(k1, k3);
        assert_eq!(store.trail(&k1).unwrap().len(), 2);
        assert_eq!(store.trail_count(), 2);
    }

    #[test]
    fn rtp_correlates_to_sip_session_via_sdp() {
        let mut store = TrailStore::new(TrailStoreConfig::default());
        store.insert(invite_with_sdp("c1", [10, 0, 0, 2], 8000));
        let (_, key) = store.insert(rtp_to([10, 0, 0, 2], 8000, 100));
        assert_eq!(key.session, SessionKey::new("c1"));
        assert_eq!(key.proto, TrailProto::Rtp);
        // The session now has two trails: SIP + RTP.
        let trails = store.session_trails(&SessionKey::new("c1"));
        assert_eq!(trails.len(), 2);
        assert_eq!(trails[0].key().proto, TrailProto::Sip);
        assert_eq!(trails[1].key().proto, TrailProto::Rtp);
    }

    #[test]
    fn unknown_rtp_gets_synthetic_flow_session() {
        let mut store = TrailStore::new(TrailStoreConfig::default());
        let (_, key) = store.insert(rtp_to([10, 0, 0, 9], 1234, 0));
        assert_eq!(key.session, SessionKey::new("flow-10.0.0.9:1234"));
    }

    #[test]
    fn acct_joins_session_by_call_id() {
        let mut store = TrailStore::new(TrailStoreConfig::default());
        store.insert(invite_with_sdp("c1", [10, 0, 0, 2], 8000));
        let acct = Footprint {
            meta: meta(50, [10, 0, 0, 1], 2427, [10, 0, 0, 4], 2427),
            body: FootprintBody::Acct(
                "ACCT START alice@lab bob@lab c1".parse().unwrap(),
            ),
        };
        let (_, key) = store.insert(acct);
        assert_eq!(key.session, SessionKey::new("c1"));
        assert_eq!(key.proto, TrailProto::Acct);
        assert_eq!(store.session_trails(&SessionKey::new("c1")).len(), 2);
    }

    #[test]
    fn garbage_to_media_sink_joins_session() {
        let mut store = TrailStore::new(TrailStoreConfig::default());
        store.insert(invite_with_sdp("c1", [10, 0, 0, 2], 8000));
        let garbage = Footprint {
            meta: meta(60, [10, 0, 0, 66], 4444, [10, 0, 0, 2], 8000),
            body: FootprintBody::UdpOther { payload_len: 172 },
        };
        let (_, key) = store.insert(garbage);
        assert_eq!(key.session, SessionKey::new("c1"));
        assert_eq!(key.proto, TrailProto::Other);
    }

    #[test]
    fn a_trail_counts_every_footprint_without_a_cap() {
        let mut store = TrailStore::new(TrailStoreConfig::default());
        for t in 0..5_000 {
            store.insert(rtp_to([10, 0, 0, 9], 1234, t));
        }
        let key = TrailKey {
            session: SessionKey::new("flow-10.0.0.9:1234"),
            proto: TrailProto::Rtp,
        };
        let trail = store.trail(&key).unwrap();
        assert_eq!(trail.len(), 5_000);
        assert_eq!(trail.created(), SimTime::ZERO);
        assert_eq!(trail.last_active(), SimTime::from_millis(4_999));
        assert_eq!(store.stats().inserted, 5_000);
    }

    #[test]
    fn idle_trails_expire() {
        let mut store = TrailStore::new(TrailStoreConfig {
            idle_timeout: SimDuration::from_secs(10),
            ..TrailStoreConfig::default()
        });
        store.insert(rtp_to([10, 0, 0, 9], 1234, 0));
        assert_eq!(store.trail_count(), 1);
        // A much later insert triggers expiry of the idle trail.
        store.insert(rtp_to([10, 0, 0, 9], 5678, 60_000));
        assert_eq!(store.trail_count(), 1);
        assert_eq!(store.stats().expired_trails, 1);
    }

    #[test]
    fn a_step_back_moves_the_deadline_earlier() {
        // `last_active` is the latest insert's time, even when the
        // capture steps back: touched at 100 then 90 with a 50 ms
        // timeout, the trail is idle from 140 on, not from 150.
        let mut store = TrailStore::new(TrailStoreConfig {
            idle_timeout: SimDuration::from_millis(50),
            ..TrailStoreConfig::default()
        });
        let (_, key) = store.insert(rtp_to([10, 0, 0, 9], 1234, 100));
        store.insert(rtp_to([10, 0, 0, 9], 1234, 90));
        assert_eq!(
            store.trail(&key).unwrap().last_active(),
            SimTime::from_millis(90)
        );
        store.insert(rtp_to([10, 0, 0, 9], 5678, 139));
        assert!(store.trail(&key).is_some(), "idle 49 ms: still live");
        store.insert(rtp_to([10, 0, 0, 9], 5678, 140));
        assert!(store.trail(&key).is_none(), "idle 50 ms: expired");
        assert_eq!(store.stats().expired_trails, 1);
        assert_eq!(store.trail_count(), 1);
    }

    #[test]
    fn eviction_skips_stale_deadline_records() {
        // Trail A opens at 10 and steps back to 5, leaving its record at
        // 10 stale; then A is touched at 200. B opens at 50. At the cap,
        // B (idle since 50) is the one to go, not A, though A's stale
        // record at 10 pops first.
        let mut store = TrailStore::new(TrailStoreConfig::default()).with_trail_cap(2);
        let (_, a) = store.insert(rtp_to([10, 0, 0, 9], 1, 10));
        store.insert(rtp_to([10, 0, 0, 9], 1, 5));
        let (_, b) = store.insert(rtp_to([10, 0, 0, 9], 2, 50));
        store.insert(rtp_to([10, 0, 0, 9], 1, 200));
        store.insert(rtp_to([10, 0, 0, 9], 3, 210));
        assert!(store.trail(&a).is_some());
        assert!(store.trail(&b).is_none());
        assert_eq!(store.stats().evicted_trails, 1);
        assert_eq!(store.trail(&a).unwrap().len(), 3);
    }

    #[test]
    fn call_id_minting_is_held_at_the_trail_cap() {
        const CAP: usize = 8;
        let mut store = TrailStore::new(TrailStoreConfig::default()).with_trail_cap(CAP);
        let live = TrailKey {
            session: SessionKey::new("live"),
            proto: TrailProto::Sip,
        };
        let mut minted = 0u64;
        for t in 0..2_000u64 {
            // Every fourth frame keeps a real call busy; the rest each
            // mint a fresh Call-ID.
            let call_id = if t % 4 == 0 {
                "live".to_string()
            } else {
                minted += 1;
                format!("mint-{t}")
            };
            let mut fp = invite_with_sdp(&call_id, [10, 0, 0, 2], 8000);
            fp.meta.time = SimTime::from_millis(t);
            store.insert(fp);
            assert!(store.trail_count() <= CAP);
        }
        let stats = store.stats();
        // Every trail ever opened is live or was evicted; none expired.
        assert_eq!(stats.expired_trails, 0);
        assert_eq!(
            stats.evicted_trails + store.trail_count() as u64,
            minted + 1
        );
        assert_eq!(store.trail_count(), CAP);
        let call = store.trail(&live).expect("the live call keeps its trail");
        assert_eq!(call.created(), SimTime::ZERO);
        assert_eq!(call.len(), 500);
    }

    #[test]
    fn media_port_reuse_lands_in_the_new_session() {
        // Regression: call-1 negotiates a media sink, ends, and goes
        // idle; call-2 later announces the *same* (addr, port). The
        // second call's RTP must land in call-2's trail — before the
        // index lifecycle fix it resolved to the dead call-1 forever.
        let mut store = TrailStore::new(TrailStoreConfig::default());
        store.insert(invite_with_sdp("call-1", [10, 0, 0, 2], 8000));
        let (_, k1) = store.insert(rtp_to([10, 0, 0, 2], 8000, 10));
        assert_eq!(k1.session, SessionKey::new("call-1"));

        // Second call, well within the idle window, reusing the port:
        // the newest SDP announcement overwrites the mapping at once.
        let mut second = invite_with_sdp("call-2", [10, 0, 0, 2], 8000);
        second.meta.time = SimTime::from_millis(5_000);
        store.insert(second);
        let (_, k2) = store.insert(rtp_to([10, 0, 0, 2], 8000, 5_100));
        assert_eq!(k2.session, SessionKey::new("call-2"));
        let call2_trails = store.session_trails(&SessionKey::new("call-2"));
        assert_eq!(call2_trails.len(), 2, "SIP + RTP trails for call-2");
        assert_eq!(call2_trails[1].key().proto, TrailProto::Rtp);
        assert_eq!(call2_trails[1].len(), 1);
        // call-1's RTP trail did not grow.
        let k1_trail = store.trail(&k1).unwrap();
        assert_eq!(k1_trail.len(), 1);
    }

    #[test]
    fn rtcp_maps_to_rtp_session() {
        let mut store = TrailStore::new(TrailStoreConfig::default());
        store.insert(invite_with_sdp("c1", [10, 0, 0, 2], 8000));
        let rtcp = Footprint {
            meta: meta(70, [10, 0, 0, 3], 9001, [10, 0, 0, 2], 8001),
            body: FootprintBody::Rtcp(scidive_rtp::rtcp::RtcpPacket::Bye { ssrcs: vec![1] }),
        };
        let (_, key) = store.insert(rtcp);
        assert_eq!(key.session, SessionKey::new("c1"));
        assert_eq!(key.proto, TrailProto::Rtcp);
    }
}
