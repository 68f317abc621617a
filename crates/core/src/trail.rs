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
//! the store here applies them to file footprints into trails.
//!
//! Bounded state (paper §3.3). Before each insert the store drops every
//! trail idle for at least [`TrailStoreConfig::idle_timeout`] — exactly
//! the trails `retain(now - last_active < idle_timeout)` would drop, for
//! any timestamp order. It finds them through a min-heap of deadline
//! records rather than a scan, so a frame costs O(1) amortised plus
//! O(log n) per expiry, independent of how many trails are live:
//!
//! * each trail remembers the time of its one pending record
//!   (`queued ≤ last_active`); a new trail pushes one, and a touch pushes
//!   one only when the capture steps back before `queued`;
//! * expiry pops every due record, skips those no longer their trail's
//!   `queued`, drops the trail if it is idle and otherwise re-queues it
//!   at `last_active`.
//!
//! Past [`MAX_LIVE_TRAILS`] a new trail first evicts the one with the
//! oldest `last_active`, through the same heap, counted in
//! [`TrailStats::evicted_trails`]. Caps are per store, so the sharded
//! pipeline agrees with one engine only while every shard stays below
//! the cap.

use crate::footprint::{Footprint, TrailProto};
use crate::routing::MediaIndex;
use scidive_netsim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};
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
/// Equality, ordering, and `Hash` are by string content (with a
/// pointer-equality fast path), so interned and freshly built keys with
/// the same text behave identically in maps and comparisons.
#[derive(Debug, Clone)]
pub struct SessionKey {
    id: Arc<str>,
    /// Memoized stable FNV-1a hash of `id` (see
    /// [`crate::routing::stable_session_hash`]).
    fnv: u64,
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
        SessionKey { id, fnv, synthetic }
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
        // Must match `str`'s hashing so `Borrow<str>` map lookups work.
        self.as_str().hash(state);
    }
}

impl std::borrow::Borrow<str> for SessionKey {
    fn borrow(&self) -> &str {
        self.as_str()
    }
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

/// One trail: the time-ordered footprints of a session on one protocol.
#[derive(Debug, Clone)]
pub struct Trail {
    key: TrailKey,
    footprints: VecDeque<Arc<Footprint>>,
    created: SimTime,
    last_active: SimTime,
    /// Footprints evicted due to the per-trail cap.
    evicted: u64,
    /// Store-unique creation number: tells this trail's deadline records
    /// from those of an earlier trail under the same key.
    id: u64,
    /// Time of this trail's pending deadline record (≤ `last_active`).
    queued: SimTime,
}

impl Trail {
    fn new(key: TrailKey, now: SimTime, id: u64) -> Trail {
        Trail {
            key,
            footprints: VecDeque::new(),
            created: now,
            last_active: now,
            evicted: 0,
            id,
            queued: now,
        }
    }

    /// The trail's key.
    pub fn key(&self) -> &TrailKey {
        &self.key
    }

    /// Footprints currently retained, oldest first.
    pub fn footprints(
        &self,
    ) -> impl DoubleEndedIterator<Item = &Arc<Footprint>> + ExactSizeIterator {
        self.footprints.iter()
    }

    /// Number of retained footprints.
    pub fn len(&self) -> usize {
        self.footprints.len()
    }

    /// Whether the trail holds no footprints.
    pub fn is_empty(&self) -> bool {
        self.footprints.is_empty()
    }

    /// When the trail was created.
    pub fn created(&self) -> SimTime {
        self.created
    }

    /// Last insertion time.
    pub fn last_active(&self) -> SimTime {
        self.last_active
    }

    /// Footprints dropped to honour the retention cap.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

/// Trail store configuration: the memory bounds that make stateful
/// detection "applicable in high throughput systems" (paper §3.3).
#[derive(Debug, Clone)]
pub struct TrailStoreConfig {
    /// Maximum footprints retained per trail.
    pub max_footprints_per_trail: usize,
    /// Trails idle for this long or longer (`now - last_active ≥
    /// idle_timeout`) are dropped on the next insert.
    pub idle_timeout: SimDuration,
}

impl Default for TrailStoreConfig {
    fn default() -> TrailStoreConfig {
        TrailStoreConfig {
            max_footprints_per_trail: 4096,
            idle_timeout: SimDuration::from_secs(600),
        }
    }
}

/// Counters for the trail store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrailStats {
    /// Footprints inserted.
    pub inserted: u64,
    /// Footprints evicted by the per-trail cap.
    pub evicted: u64,
    /// Whole trails expired by the idle timeout.
    pub expired_trails: u64,
    /// Whole trails evicted, oldest `last_active` first, to keep the
    /// live count at [`MAX_LIVE_TRAILS`].
    pub evicted_trails: u64,
}

/// One pending deadline record `(time, trail id, key)`: the trail is due
/// for an idle check once `idle_timeout` has passed since `time`. Ids are
/// unique, so records order by `(time, id)` alone; keys are never
/// compared.
type Deadline = (SimTime, u64, TrailKey);

/// The trail store: all live trails plus the cross-protocol correlation
/// indices.
#[derive(Debug)]
pub struct TrailStore {
    config: TrailStoreConfig,
    trails: HashMap<TrailKey, Trail>,
    /// (media sink addr, port) → owning session, learned from SDP.
    media_index: MediaIndex,
    stats: TrailStats,
    /// Recycled footprint slots: `Arc`s whose footprint left its trail
    /// with no other holder. [`TrailStore::insert`] overwrites a slot in
    /// place instead of allocating a fresh `Arc` — the steady-state
    /// retain/evict cycle then runs with zero allocator traffic per
    /// frame. Bounded by [`FOOTPRINT_POOL_CAP`].
    free: Vec<Arc<Footprint>>,
    /// Min-heap of deadline records: exactly one valid record per live
    /// trail (the one at its `queued`), plus stale ones skipped when
    /// popped.
    deadlines: BinaryHeap<Reverse<Deadline>>,
    /// Id for the next trail created.
    next_id: u64,
    /// Footprints retained across all trails.
    retained: usize,
    /// Live-trail cap ([`MAX_LIVE_TRAILS`] outside unit tests).
    trail_cap: usize,
}

/// Upper bound on pooled footprint slots. Enough to keep the
/// evict-one-insert-one steady state allocation-free; beyond it, retired
/// slots go back to the allocator so a burst can't pin memory.
const FOOTPRINT_POOL_CAP: usize = 256;

/// Hard cap on live trails per store. A new trail past it evicts the
/// trail with the oldest `last_active` (counted in
/// [`TrailStats::evicted_trails`]), so memory under a Call-ID-minting
/// flood is bounded by this constant rather than by `idle_timeout ×
/// link rate`. Each shard's store has its own cap: shard-count
/// invariance holds only while no store reaches it.
pub const MAX_LIVE_TRAILS: usize = 1 << 18;

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
        let media_index = MediaIndex::with_protocols(config.idle_timeout, protocols);
        TrailStore {
            config,
            trails: HashMap::new(),
            media_index,
            stats: TrailStats::default(),
            free: Vec::new(),
            deadlines: BinaryHeap::new(),
            next_id: 0,
            retained: 0,
            trail_cap: MAX_LIVE_TRAILS,
        }
    }

    /// The same store with a smaller live-trail cap.
    #[cfg(test)]
    pub(crate) fn with_trail_cap(mut self, cap: usize) -> TrailStore {
        assert!(cap >= 1, "the store must hold the trail being inserted");
        self.trail_cap = cap;
        self
    }

    /// Current counters.
    pub fn stats(&self) -> TrailStats {
        self.stats
    }

    /// Number of live trails.
    pub fn trail_count(&self) -> usize {
        self.trails.len()
    }

    /// Total retained footprints across all trails.
    pub fn footprint_count(&self) -> usize {
        self.retained
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
        self.trails.get(key)
    }

    /// All trails of one session.
    pub fn session_trails(&self, session: &SessionKey) -> Vec<&Trail> {
        let mut trails: Vec<&Trail> = self
            .trails
            .values()
            .filter(|t| &t.key.session == session)
            .collect();
        trails.sort_by_key(|t| t.key.proto);
        trails
    }

    /// Inserts a footprint, assigning it to a session trail. Returns the
    /// shared footprint and the trail key it landed in.
    pub fn insert(&mut self, fp: Footprint) -> (Arc<Footprint>, TrailKey) {
        let now = fp.meta.time;
        self.expire(now);
        let session = self.session_of(&fp);
        self.learn_media(&fp, &session);
        let key = TrailKey {
            session,
            proto: fp.proto(),
        };
        // Reuse a recycled slot when one is available: overwriting the
        // unique `Arc` in place drops the old footprint without touching
        // the allocator.
        let fp = match self.free.pop() {
            Some(mut slot) => {
                *Arc::get_mut(&mut slot).expect("pooled slots are unique") = fp;
                slot
            }
            None => Arc::new(fp),
        };
        let trail = match self.trails.get_mut(&key) {
            Some(trail) => {
                // A step back before the pending record would leave it
                // late: queue the earlier deadline too.
                if now < trail.queued {
                    trail.queued = now;
                    self.deadlines.push(Reverse((now, trail.id, key.clone())));
                }
                trail
            }
            None => {
                if self.trails.len() >= self.trail_cap {
                    self.evict_oldest();
                }
                let id = self.next_id;
                self.next_id += 1;
                self.deadlines.push(Reverse((now, id, key.clone())));
                self.trails
                    .entry(key.clone())
                    .or_insert(Trail::new(key.clone(), now, id))
            }
        };
        trail.footprints.push_back(fp.clone());
        trail.last_active = now;
        self.stats.inserted += 1;
        self.retained += 1;
        if trail.footprints.len() > self.config.max_footprints_per_trail {
            let evicted = trail.footprints.pop_front();
            trail.evicted += 1;
            self.stats.evicted += 1;
            self.retained -= 1;
            if let Some(old) = evicted {
                self.recycle(old);
            }
        }
        if self.deadlines.len() > 2 * self.trails.len() + STALE_DEADLINE_SLACK {
            self.drop_stale_deadlines();
        }
        (fp, key)
    }

    /// Returns a footprint slot to the pool if nothing else still holds
    /// it (rules and alerts may retain `Arc` clones — those slots are
    /// simply dropped) and the pool has room.
    fn recycle(&mut self, slot: Arc<Footprint>) {
        if self.free.len() < FOOTPRINT_POOL_CAP
            && Arc::strong_count(&slot) == 1
            && Arc::weak_count(&slot) == 0
        {
            self.free.push(slot);
        }
    }

    /// Derives the session a footprint belongs to (the canonical rule
    /// shared with the dispatcher lives on [`MediaIndex`]).
    fn session_of(&mut self, fp: &Footprint) -> SessionKey {
        self.media_index.session_for(fp)
    }

    /// Learns media sinks from SDP bodies in SIP messages.
    fn learn_media(&mut self, fp: &Footprint, session: &SessionKey) {
        self.media_index.learn_from(fp, session);
    }

    /// Drops every trail idle for at least the timeout at `now`. A trail
    /// is idle only if its pending record is due (`queued ≤
    /// last_active`), so popping due records finds them all.
    fn expire(&mut self, now: SimTime) {
        let timeout = self.config.idle_timeout;
        while let Some(Reverse((at, _, _))) = self.deadlines.peek() {
            if now.saturating_since(*at) < timeout {
                break;
            }
            let Reverse(due) = self.deadlines.pop().expect("peeked");
            if self.settle(due, |t| now.saturating_since(t.last_active) >= timeout) {
                self.stats.expired_trails += 1;
            }
        }
    }

    /// Evicts the trail with the oldest `last_active`. The heap's first
    /// valid record that sits at its trail's `last_active` is that trail:
    /// every other live trail's `last_active` is at or after its own
    /// record.
    fn evict_oldest(&mut self) {
        while let Some(Reverse(due)) = self.deadlines.pop() {
            if self.settle(due, |t| t.queued == t.last_active) {
                self.stats.evicted_trails += 1;
                return;
            }
        }
    }

    /// Resolves one popped deadline record. A stale record (its trail is
    /// gone or has queued an earlier one since) is dropped. Otherwise the
    /// trail is removed if `dies` holds, its footprint slots recycled,
    /// and `true` returned; if not, it re-queues at its `last_active`.
    fn settle(&mut self, (at, id, key): Deadline, dies: impl FnOnce(&Trail) -> bool) -> bool {
        let Entry::Occupied(mut entry) = self.trails.entry(key) else {
            return false;
        };
        let trail = entry.get_mut();
        if trail.id != id || trail.queued != at {
            return false;
        }
        if !dies(trail) {
            trail.queued = trail.last_active;
            let record = (trail.last_active, id, entry.key().clone());
            self.deadlines.push(Reverse(record));
            return false;
        }
        let mut trail = entry.remove();
        self.retained -= trail.footprints.len();
        while let Some(slot) = trail.footprints.pop_front() {
            self.recycle(slot);
        }
        true
    }

    /// Drops the records no longer their trail's pending one. Only
    /// captures that keep stepping back leave stale records behind; this
    /// bounds them at about the number of live trails.
    fn drop_stale_deadlines(&mut self) {
        let trails = &self.trails;
        self.deadlines.retain(|Reverse((at, id, key))| {
            trails
                .get(key)
                .is_some_and(|t| t.id == *id && t.queued == *at)
        });
    }
}

/// Stale deadline records tolerated beyond twice the live trail count
/// before [`TrailStore::drop_stale_deadlines`] runs.
const STALE_DEADLINE_SLACK: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::{FootprintBody, PacketMeta};
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
            body: FootprintBody::Sip(b.build().into()),
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
    fn per_trail_cap_evicts_oldest() {
        let mut store = TrailStore::new(TrailStoreConfig {
            max_footprints_per_trail: 3,
            ..TrailStoreConfig::default()
        });
        for t in 0..5 {
            store.insert(rtp_to([10, 0, 0, 9], 1234, t));
        }
        let key = TrailKey {
            session: SessionKey::new("flow-10.0.0.9:1234"),
            proto: TrailProto::Rtp,
        };
        let trail = store.trail(&key).unwrap();
        assert_eq!(trail.len(), 3);
        assert_eq!(trail.evicted(), 2);
        assert_eq!(store.stats().evicted, 2);
        // Oldest retained is t=2.
        assert_eq!(
            trail.footprints().next().unwrap().meta.time,
            SimTime::from_millis(2)
        );
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
        store.insert(rtp_to([10, 0, 0, 9], 5678, 139));
        assert!(store.trail(&key).is_some(), "idle 49 ms: still live");
        store.insert(rtp_to([10, 0, 0, 9], 5678, 140));
        assert!(store.trail(&key).is_none(), "idle 50 ms: expired");
        assert_eq!(store.stats().expired_trails, 1);
        assert_eq!(store.trail_count(), 1);
        assert_eq!(store.footprint_count(), 2);
    }

    #[test]
    fn in_order_streams_keep_one_deadline_per_trail() {
        // 10k in-order inserts over 1k sessions, with idle expiry and
        // re-queueing both at work: a heap that queued a record on every
        // insert would hold ~10k records here.
        let mut store = TrailStore::new(TrailStoreConfig {
            idle_timeout: SimDuration::from_millis(400),
            ..TrailStoreConfig::default()
        });
        let mut x = 1u64;
        for t in 0..10_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let port = 10_000 + ((x >> 33) % 1_000) as u16;
            store.insert(rtp_to([10, 0, 0, 9], port, t));
            assert!(
                store.deadlines.len() <= store.trail_count() + 1,
                "{} records for {} trails at t={t}",
                store.deadlines.len(),
                store.trail_count()
            );
        }
        assert!(store.stats().expired_trails > 0);
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
        assert_eq!(store.footprint_count(), 4);
    }

    #[test]
    fn a_capture_that_keeps_stepping_back_leaves_bounded_records() {
        let mut store = TrailStore::new(TrailStoreConfig::default());
        for t in (0..1_000u64).rev() {
            store.insert(rtp_to([10, 0, 0, 9], 1234, t));
            assert!(store.deadlines.len() <= 2 * store.trail_count() + STALE_DEADLINE_SLACK);
        }
        assert_eq!(store.trail_count(), 1);
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
            let retained: usize = store.trails.values().map(Trail::len).sum();
            assert_eq!(store.footprint_count(), retained);
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
