//! The one idle-expiring map every session store is built on: trails,
//! the media index and its key memos, the session plane, the RTP flow
//! history, the identity plane's AOR bindings and every rule's
//! [`crate::rules::SessionMap`] (paper §3.3: memory bounds make stateful
//! detection "applicable in high throughput systems").
//!
//! * **Expiry.** Before any access at `now`, every entry idle for at
//!   least the timeout (`now - last_active ≥ timeout`, saturating) is
//!   gone: the map holds exactly what a map running `retain(now -
//!   last_active < timeout)` before every access would. A refresh sets
//!   `last_active = now`, even when the capture steps back. For an
//!   in-order capture that equals a staleness check on each key's own
//!   accesses, so stores that see different interleavings of other keys
//!   (one engine, or one shard of many) agree; a capture that steps back
//!   gets the retain-every-access model.
//! * **Cap.** Past [`MAX_LIVE_ENTRIES`], a new key first evicts the
//!   oldest `last_active`, ties by creation order. Caps are per map: a
//!   sharded deployment agrees with one engine only below them.
//! * **Reclamation** pops deadline records in `(time, id)` order. Each
//!   entry has one pending record at `queued ≤ last_active`; a new key
//!   pushes one, a refresh only when the capture steps back before
//!   `queued`. A popped record no longer pending is skipped; otherwise
//!   its entry dies if idle or re-queues at `last_active`. Stale records
//!   are purged once the records pass `2 × live + 64`. The pipeline
//!   reclaims every map but the rules' once per footprint (the trail
//!   map by its insert, the others by `IdleMap::reclaim`), so they
//!   drain while nobody reads them; a rule's maps reclaim on the rule's
//!   own accesses.
//!
//! [`IdleMap::peek`] and [`IdleMap::iter`] ignore staleness. Values the
//! map drops itself go to its [`DropHook`]; values the caller removes
//! or replaces are returned.

use scidive_netsim::time::{SimDuration, SimTime};
use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::Hash;

/// Hard cap on live entries per map: memory under a key-minting flood
/// is bounded by it rather than by the timeout × link rate.
pub const MAX_LIVE_ENTRIES: usize = 1 << 18;

/// The default idle timeout of every store.
pub const DEFAULT_IDLE_TIMEOUT: SimDuration = SimDuration::from_secs(600);

/// Stale records tolerated beyond twice the live count before a purge.
const STALE_RECORD_SLACK: usize = 64;

/// One store's size and lifecycle counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreGauge {
    /// Entries held, including idle ones the next reclaim drops.
    pub live: u64,
    /// Entries dropped by idle expiry (monotonic).
    pub expired: u64,
    /// Entries evicted at the cap (monotonic).
    pub evicted: u64,
}

/// Receives every value an [`IdleMap`] drops itself, by expiry or
/// eviction. `()` discards them.
pub trait DropHook<V> {
    /// Takes one dropped value.
    fn dropped(&mut self, value: V);
}

impl<V> DropHook<V> for () {
    fn dropped(&mut self, _value: V) {}
}

#[derive(Debug, Clone)]
struct Slot<V> {
    value: V,
    last_active: SimTime,
    /// Time of the entry's pending deadline record.
    queued: SimTime,
    /// Map-unique creation number: tells this entry's records from those
    /// of an earlier entry under the same key.
    id: u64,
}

/// A deadline record `(time, entry id, key)`. Ids are unique, so records
/// order by `(time, id)` alone; keys are never compared.
type Record<K> = (SimTime, u64, K);

/// Deadline records, popped in `(time, id)` order. A record at or after
/// the queue's back (every new key of an in-order capture) is appended
/// in O(1); the rest (re-queues, step-backs) go to a min-heap.
#[derive(Debug, Clone)]
struct Deadlines<K> {
    queue: VecDeque<Record<K>>,
    heap: BinaryHeap<Reverse<Record<K>>>,
}

impl<K: Ord> Deadlines<K> {
    fn len(&self) -> usize {
        self.queue.len() + self.heap.len()
    }

    fn push(&mut self, record: Record<K>) {
        match self.queue.back() {
            Some(back) if *back > record => self.heap.push(Reverse(record)),
            _ => self.queue.push_back(record),
        }
    }

    /// Whether the earliest record is the heap's.
    fn heap_first(&self) -> bool {
        match (self.queue.front(), self.heap.peek()) {
            (Some(first), Some(Reverse(top))) => top < first,
            (first, top) => first.is_none() && top.is_some(),
        }
    }

    /// The earliest record's time.
    fn peek(&self) -> Option<SimTime> {
        if self.heap_first() {
            self.heap.peek().map(|Reverse(r)| r.0)
        } else {
            self.queue.front().map(|r| r.0)
        }
    }

    fn pop(&mut self) -> Option<Record<K>> {
        if self.heap_first() {
            self.heap.pop().map(|Reverse(r)| r)
        } else {
            self.queue.pop_front()
        }
    }

    fn retain(&mut self, mut keep: impl FnMut(&Record<K>) -> bool) {
        self.queue.retain(&mut keep);
        self.heap.retain(|Reverse(r)| keep(r));
    }
}

/// A hash map whose entries expire after a stretch of idleness, with a
/// hard cap and counted eviction (see the [module docs](self)).
///
/// ```
/// use scidive_core::idle::IdleMap;
/// use scidive_netsim::time::{SimDuration, SimTime};
///
/// let mut map: IdleMap<&str, u32> = IdleMap::new(SimDuration::from_secs(2));
/// map.insert("a", 1, SimTime::ZERO);
/// assert_eq!(map.get_mut(&"a", SimTime::from_millis(1_999)).copied(), Some(1));
/// // Idle for the whole timeout since that refresh: gone.
/// assert!(map.get_mut(&"a", SimTime::from_millis(3_999)).is_none());
/// assert_eq!(map.gauge().expired, 1);
/// ```
#[derive(Debug, Clone)]
pub struct IdleMap<K, V, H = ()> {
    entries: HashMap<K, Slot<V>>,
    /// One valid record per live entry (at its `queued`), plus stale
    /// ones skipped when popped.
    deadlines: Deadlines<K>,
    timeout: SimDuration,
    cap: usize,
    next_id: u64,
    expired: u64,
    evicted: u64,
    hook: H,
}

impl<K: Hash + Ord + Clone, V, H: DropHook<V> + Default> Default for IdleMap<K, V, H> {
    fn default() -> IdleMap<K, V, H> {
        IdleMap::new(DEFAULT_IDLE_TIMEOUT)
    }
}

impl<K: Hash + Ord + Clone, V, H: DropHook<V> + Default> IdleMap<K, V, H> {
    /// An empty map whose entries expire after `timeout` of idleness,
    /// capped at [`MAX_LIVE_ENTRIES`].
    pub fn new(timeout: SimDuration) -> IdleMap<K, V, H> {
        IdleMap {
            entries: HashMap::new(),
            deadlines: Deadlines {
                queue: VecDeque::new(),
                heap: BinaryHeap::new(),
            },
            timeout,
            cap: MAX_LIVE_ENTRIES,
            next_id: 0,
            expired: 0,
            evicted: 0,
            hook: H::default(),
        }
    }

    /// The same map with a smaller cap (at least 1).
    #[cfg(test)]
    pub(crate) fn with_cap(mut self, cap: usize) -> IdleMap<K, V, H> {
        assert!(cap >= 1, "an idle map must hold the entry being inserted");
        self.cap = cap;
        self
    }

    /// Changes the idle timeout; it applies from the next access on.
    pub fn set_timeout(&mut self, timeout: SimDuration) {
        self.timeout = timeout;
    }

    /// Entries held, including idle ones the next reclaim drops.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Size and lifecycle counters.
    pub fn gauge(&self) -> StoreGauge {
        StoreGauge {
            live: self.entries.len() as u64,
            expired: self.expired,
            evicted: self.evicted,
        }
    }

    pub(crate) fn hook(&self) -> &H {
        &self.hook
    }

    pub(crate) fn hook_mut(&mut self) -> &mut H {
        &mut self.hook
    }

    /// The value under `key`, ignoring staleness.
    pub fn peek<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.entries.get(key).map(|slot| &slot.value)
    }

    /// The stored key equal to `key`, ignoring staleness.
    pub fn peek_key<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<&K>
    where
        K: Borrow<Q>,
    {
        self.entries.get_key_value(key).map(|(k, _)| k)
    }

    /// Every held entry, ignoring staleness, in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, slot)| (k, &slot.value))
    }

    /// The value under `key` at `now`, leaving its idle clock alone.
    pub fn get<Q: Hash + Eq + ?Sized>(&mut self, key: &Q, now: SimTime) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.reclaim(now);
        self.peek(key)
    }

    /// The value under `key` at `now`, refreshed.
    pub fn get_mut(&mut self, key: &K, now: SimTime) -> Option<&mut V> {
        self.reclaim(now);
        let slot = self.entries.get_mut(key)?;
        if touch(slot, now) {
            self.deadlines.push((now, slot.id, key.clone()));
        }
        Some(&mut slot.value)
    }

    /// The value under `key` at `now`, refreshed, or `make()` stored as a
    /// new entry (evicting the oldest first if the map is full).
    pub fn get_or_insert_with(&mut self, key: K, now: SimTime, make: impl FnOnce() -> V) -> &mut V {
        self.reclaim(now);
        if self.entries.len() >= self.cap && !self.entries.contains_key(&key) {
            self.evict_oldest();
        }
        match self.entries.entry(key) {
            Entry::Occupied(e) => {
                let stepped_back = (now < e.get().queued).then(|| e.key().clone());
                let slot = e.into_mut();
                touch(slot, now);
                if let Some(key) = stepped_back {
                    self.deadlines.push((now, slot.id, key));
                }
                &mut slot.value
            }
            Entry::Vacant(e) => {
                let id = self.next_id;
                self.next_id += 1;
                self.deadlines.push((now, id, e.key().clone()));
                let slot = Slot {
                    value: make(),
                    last_active: now,
                    queued: now,
                    id,
                };
                &mut e.insert(slot).value
            }
        }
    }

    /// Stores `value` under `key` at `now`, returning the value it
    /// replaces.
    pub fn insert(&mut self, key: K, value: V, now: SimTime) -> Option<V> {
        let mut fresh = Some(value);
        let slot = self.get_or_insert_with(key, now, || fresh.take().expect("made once"));
        fresh.map(|value| std::mem::replace(slot, value))
    }

    /// Removes `key` at `now`, returning its value if it was live.
    pub fn remove<Q: Hash + Eq + ?Sized>(&mut self, key: &Q, now: SimTime) -> Option<V>
    where
        K: Borrow<Q>,
    {
        self.reclaim(now);
        self.entries.remove(key).map(|slot| slot.value)
    }

    /// Drops every entry idle for at least the timeout at `now` (an idle
    /// entry's pending record is due, so popping due records finds them
    /// all), then purges stale records if they have piled up. Every
    /// access runs it first.
    pub(crate) fn reclaim(&mut self, now: SimTime) {
        let timeout = self.timeout;
        while let Some(at) = self.deadlines.peek() {
            if now.saturating_since(at) < timeout {
                break;
            }
            let due = self.deadlines.pop().expect("peeked");
            if let Some(value) =
                self.settle(due, |s| now.saturating_since(s.last_active) >= timeout)
            {
                self.expired += 1;
                self.hook.dropped(value);
            }
        }
        if self.deadlines.len() > 2 * self.entries.len() + STALE_RECORD_SLACK {
            let entries = &self.entries;
            self.deadlines.retain(|(at, id, key)| {
                entries
                    .get(key)
                    .is_some_and(|s| s.id == *id && s.queued == *at)
            });
        }
    }

    /// Evicts the entry with the oldest `last_active`: the first valid
    /// record sitting at its entry's `last_active`, since every other
    /// entry's `last_active` is at or after its own record.
    fn evict_oldest(&mut self) {
        while let Some(due) = self.deadlines.pop() {
            if let Some(value) = self.settle(due, |s| s.queued == s.last_active) {
                self.evicted += 1;
                self.hook.dropped(value);
                return;
            }
        }
    }

    /// Resolves one popped record: a stale one is dropped; otherwise the
    /// entry is removed and returned if `dies` holds, or re-queued at its
    /// `last_active`.
    fn settle(
        &mut self,
        (at, id, key): Record<K>,
        dies: impl FnOnce(&Slot<V>) -> bool,
    ) -> Option<V> {
        let Entry::Occupied(mut e) = self.entries.entry(key) else {
            return None;
        };
        let slot = e.get_mut();
        if slot.id != id || slot.queued != at {
            return None;
        }
        if dies(slot) {
            return Some(e.remove().value);
        }
        slot.queued = slot.last_active;
        let record = (slot.last_active, id, e.key().clone());
        self.deadlines.push(record);
        None
    }
}

/// Refreshes an entry at `now`; returns whether the capture stepped back
/// before its pending record, which then needs an earlier one.
fn touch<V>(slot: &mut Slot<V>, now: SimTime) -> bool {
    slot.last_active = now;
    let stepped_back = now < slot.queued;
    if stepped_back {
        slot.queued = now;
    }
    stepped_back
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Collects what the map drops on its own.
    #[derive(Debug, Default)]
    struct Graveyard(Vec<u32>);

    impl DropHook<u32> for Graveyard {
        fn dropped(&mut self, value: u32) {
            self.0.push(value);
        }
    }

    #[test]
    fn a_step_back_moves_the_deadline_earlier() {
        // `last_active` is the latest access's time, even when the
        // capture steps back: touched at 100 then 90 with a 50 ms
        // timeout, the entry is idle from 140 on, not from 150.
        let mut map: IdleMap<u32, u32> = IdleMap::new(SimDuration::from_millis(50));
        map.insert(1, 10, at(100));
        assert!(map.get_mut(&1, at(90)).is_some());
        map.insert(2, 20, at(139));
        assert!(map.peek(&1).is_some(), "idle 49 ms: still live");
        map.insert(2, 20, at(140));
        assert!(map.peek(&1).is_none(), "idle 50 ms: expired");
        assert_eq!(map.gauge().expired, 1);
    }

    #[test]
    fn reads_do_not_refresh_and_writes_do() {
        let mut map: IdleMap<u32, u32> = IdleMap::new(SimDuration::from_millis(10));
        map.insert(1, 10, at(0));
        assert_eq!(map.get(&1, at(9)), Some(&10));
        assert_eq!(map.get(&1, at(10)), None, "a read kept no entry alive");
        map.insert(2, 20, at(20));
        assert_eq!(map.get_mut(&2, at(29)).copied(), Some(20));
        assert_eq!(map.get(&2, at(38)), Some(&20), "the write refreshed it");
    }

    #[test]
    fn in_order_streams_keep_one_record_per_entry() {
        // 10k in-order accesses over 1k keys, with idle expiry and
        // re-queueing both at work: a heap that queued a record on every
        // access would hold ~10k records here.
        let mut map: IdleMap<u64, ()> = IdleMap::new(SimDuration::from_millis(400));
        let mut x = 1u64;
        for t in 0..10_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            map.get_or_insert_with((x >> 33) % 1_000, at(t), || ());
            assert!(
                map.deadlines.len() <= map.len() + 1,
                "{} records for {} entries at t={t}",
                map.deadlines.len(),
                map.len()
            );
        }
        assert!(map.gauge().expired > 0);
    }

    #[test]
    fn a_capture_that_keeps_stepping_back_leaves_bounded_records() {
        let mut map: IdleMap<u32, ()> = IdleMap::new(SimDuration::from_secs(600));
        for t in (0..1_000u64).rev() {
            map.get_or_insert_with(1, at(t), || ());
            // Purged at the access after the heap passes the bound.
            assert!(map.deadlines.len() <= 2 * map.len() + STALE_RECORD_SLACK + 1);
        }
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn a_purge_that_empties_the_fifo_still_pops_the_heap() {
        // One entry stepping back 66 times leaves its first record, the
        // FIFO's only one, stale and its live record in the heap; the
        // purge at the next access empties the FIFO.
        let mut map: IdleMap<u32, ()> = IdleMap::new(SimDuration::from_millis(50));
        map.insert(1, (), at(1_000));
        for t in (934..1_000).rev() {
            map.get_mut(&1, at(t));
        }
        assert!(map.get(&1, at(960)).is_some());
        assert!(map.deadlines.queue.is_empty());
        assert!(map.get(&1, at(984)).is_none(), "idle 50 ms since 934");
        assert_eq!(map.gauge().expired, 1);
    }

    #[test]
    fn eviction_skips_stale_records() {
        // Entry 1 opens at 10 and steps back to 5, leaving its record at
        // 10 stale; then 1 is touched at 200. Entry 2 opens at 50. At the
        // cap, 2 (idle since 50) is the one to go, not 1, though 1's
        // stale record at 10 pops first.
        let mut map: IdleMap<u32, u32, Graveyard> =
            IdleMap::new(SimDuration::from_secs(600)).with_cap(2);
        map.insert(1, 10, at(10));
        map.get_mut(&1, at(5));
        map.insert(2, 20, at(50));
        map.get_mut(&1, at(200));
        map.insert(3, 30, at(210));
        assert!(map.peek(&1).is_some());
        assert!(map.peek(&2).is_none());
        assert_eq!(map.hook().0, vec![20]);
        assert_eq!(map.gauge().evicted, 1);
    }

    #[test]
    fn equal_idle_times_evict_in_creation_order() {
        let mut map: IdleMap<u32, u32, Graveyard> =
            IdleMap::new(SimDuration::from_secs(600)).with_cap(2);
        map.insert(7, 70, at(10));
        map.insert(3, 30, at(10));
        map.insert(5, 50, at(10));
        assert_eq!(map.hook().0, vec![70]);
    }

    #[test]
    fn the_hook_gets_expired_values_and_the_caller_gets_removed_ones() {
        let mut map: IdleMap<u32, u32, Graveyard> = IdleMap::new(SimDuration::from_millis(10));
        map.insert(1, 10, at(0));
        map.insert(2, 20, at(5));
        assert_eq!(map.remove(&2, at(6)), Some(20));
        assert_eq!(map.insert(3, 30, at(20)), None);
        assert_eq!(map.insert(3, 31, at(21)), Some(30));
        assert_eq!(map.hook().0, vec![10]);
        assert_eq!(
            map.gauge(),
            StoreGauge {
                live: 1,
                expired: 1,
                evicted: 0
            }
        );
    }

    /// One model entry.
    struct ModelEntry {
        value: u32,
        last_active: SimTime,
        /// Creation order, the eviction tie-break.
        created: u64,
    }

    /// The idle-map semantics, naively: before every access, drop every
    /// entry with `now - last_active ≥ timeout`; a new key past the cap
    /// evicts the oldest `last_active`, ties by creation order.
    struct IdleModel {
        entries: HashMap<u8, ModelEntry>,
        timeout: SimDuration,
        cap: usize,
        created: u64,
        expired: u64,
        evicted: u64,
    }

    impl IdleModel {
        fn access(&mut self, now: SimTime) {
            let timeout = self.timeout;
            let before = self.entries.len();
            self.entries
                .retain(|_, e| now.saturating_since(e.last_active) < timeout);
            self.expired += (before - self.entries.len()) as u64;
        }

        /// The entry under `key`, refreshed, or a new one holding `value`.
        fn upsert(&mut self, key: u8, value: u32, now: SimTime) -> &mut ModelEntry {
            if !self.entries.contains_key(&key) {
                if self.entries.len() >= self.cap {
                    let oldest = self
                        .entries
                        .iter()
                        .min_by_key(|(_, e)| (e.last_active, e.created))
                        .map(|(k, _)| *k)
                        .expect("a full map is not empty");
                    self.entries.remove(&oldest);
                    self.evicted += 1;
                }
                self.created += 1;
                self.entries.insert(
                    key,
                    ModelEntry {
                        value,
                        last_active: now,
                        created: self.created,
                    },
                );
            }
            let entry = self.entries.get_mut(&key).expect("present");
            entry.last_active = now;
            entry
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random inserts, refreshing and plain reads, get-or-insert and
        /// removals over at most 8 keys, with time steps from -span to
        /// +2 span for a span drawn apart from the timeout (so entries may
        /// outlive many steps and pile up against the cap), timeouts of 0,
        /// 1 us and random, and caps of 1 to 5: after every operation the
        /// map returns what the model returns and holds the same entries,
        /// values and counters.
        #[test]
        fn idle_map_matches_the_retain_every_access_model(
            ops in proptest::collection::vec((0u8..5, 0u8..8, 0.0f64..1.0), 1..300),
            timeout_us in prop_oneof![Just(0u64), Just(1u64), 2u64..200_000],
            span_us in 1u64..200_000,
            cap in 1usize..6,
        ) {
            let timeout = SimDuration::from_micros(timeout_us);
            let mut map: IdleMap<u8, u32> = IdleMap::new(timeout).with_cap(cap);
            let mut model = IdleModel {
                entries: HashMap::new(),
                timeout,
                cap,
                created: 0,
                expired: 0,
                evicted: 0,
            };
            let span = span_us as f64;
            let mut at = 1_000_000u64;
            for (n, &(op, key, step)) in ops.iter().enumerate() {
                // step ∈ [0, 1) maps onto [-span, +2 span).
                at = at.saturating_add_signed((step * 3.0 * span - span) as i64);
                let now = SimTime::from_micros(at);
                let value = n as u32;
                model.access(now);
                let (got, want) = match op {
                    0 => {
                        let old = model.entries.get(&key).map(|e| e.value);
                        model.upsert(key, value, now).value = value;
                        (map.insert(key, value, now), old)
                    }
                    1 => (
                        map.get_mut(&key, now).map(|v| {
                            *v += 1;
                            *v
                        }),
                        model.entries.get_mut(&key).map(|e| {
                            e.last_active = now;
                            e.value += 1;
                            e.value
                        }),
                    ),
                    2 => (
                        map.get(&key, now).copied(),
                        model.entries.get(&key).map(|e| e.value),
                    ),
                    3 => (
                        Some(*map.get_or_insert_with(key, now, || value)),
                        Some(model.upsert(key, value, now).value),
                    ),
                    _ => (
                        map.remove(&key, now),
                        model.entries.remove(&key).map(|e| e.value),
                    ),
                };
                prop_assert_eq!(got, want, "op {} on key {} at {:?}", op, key, now);
                let mut held: Vec<(u8, u32)> = map.iter().map(|(k, v)| (*k, *v)).collect();
                held.sort_unstable();
                let mut modelled: Vec<(u8, u32)> =
                    model.entries.iter().map(|(k, e)| (*k, e.value)).collect();
                modelled.sort_unstable();
                prop_assert_eq!(held, modelled);
                let gauge = map.gauge();
                prop_assert_eq!(
                    (gauge.live, gauge.expired, gauge.evicted),
                    (model.entries.len() as u64, model.expired, model.evicted)
                );
            }
        }
    }
}
