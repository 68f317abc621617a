//! The one threshold estimator: an exact, capped per-key window table.
//!
//! A threshold clause ("`count >= N` events of one key, to
//! `distinct >= M` items, inside a window") is decided here and nowhere
//! else: a single engine's [`crate::rules::ThresholdRule`] owns a
//! [`ThresholdTable`] and calls [`ThresholdTable::observe`] per event;
//! the sharded pipeline's [`crate::rate::GlobalRatePlane`] owns the same
//! type and replays every shard's observations through it in time order.
//! The identity plane ([`crate::event::IdentityPlane`]) decides password
//! guessing through [`ThresholdTable::observe`] too, and its REGISTER
//! flood — an alternation count over a request key and a 4xx key, with
//! hysteresis, not a threshold spec — through the crate's
//! `observe_pair`.
//!
//! The table holds the raw in-window `(key, time, item-hash)`
//! observations, flat and sorted so one key's window is a contiguous,
//! time-ordered run. A key's count is the length of *its own* run — no
//! other key's traffic can raise it, so the table cannot raise a false
//! alarm; the only way it errs is by forgetting (eviction at the byte
//! cap), which can only miss, and every forgotten observation is
//! counted.
//!
//! * **Lifetime.** A key lives exactly as long as it has an in-window
//!   observation. Its fired flag rides on its observations (the low bit
//!   of the stored item hash, inherited by every observation made while
//!   an in-window one carries it), so the key re-arms when — and only
//!   when — its window drains.
//! * **Cost.** Observations are buffered in arrival order and merged
//!   into the sorted run every [`RECENT`] of them, in one in-place pass
//!   that also drops what aged out: 24 bytes per observation, no
//!   per-key allocation, no strings.
//! * **Cap.** [`TABLE_BYTES_CAP`] bounds the allocation. Past it, any
//!   key holding more than half of the low-water mark (7/8 of the cap)
//!   first loses its oldest observations down to that half: its newest
//!   ones carry its fired flag, so a campaign that outgrows the table
//!   stays latched instead of re-arming. Then whole keys go — the key
//!   whose newest observation is oldest first, ties by key — down to
//!   the low-water mark, so a key-minting flood pays for the eviction
//!   sort once per eighth of the table, not per event.

use crate::rules::threshold::{ThresholdSpec, MAX_DISTINCT_THRESHOLD};
use scidive_netsim::time::{SimDuration, SimTime};

/// Hard bound on the bytes one table may pin — the 2 MiB the soak and
/// capacity gates hold rate state to.
pub const TABLE_BYTES_CAP: usize = 2 * 1024 * 1024;

/// Observations buffered in arrival order between compactions.
const RECENT: usize = 64;

/// Low bit of a stored item hash: set on the observation that fired its
/// key's clause and on every later one made while an in-window
/// observation of the key still carries it.
const FIRED: u64 = 1;

/// One retained observation. The derived order — `(key, time, item)` —
/// makes each key's window a contiguous, time-sorted run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    key: u64,
    time: SimTime,
    item: u64,
}

/// `window` before `t`, clamped at the epoch.
fn window_start(t: SimTime, window: SimDuration) -> SimTime {
    SimTime::from_micros(t.as_micros().saturating_sub(window.as_micros()))
}

/// Whether `items` hold at least `want` distinct values: an early-exit
/// linear probe over a fixed array, so a busy key that keeps dialling
/// the same few items costs no allocation per event (the full distinct
/// count for the alert message is only taken when the clause fires).
fn fans_out(items: impl Iterator<Item = u64>, want: u32) -> bool {
    let want = want.min(MAX_DISTINCT_THRESHOLD) as usize;
    let mut seen = [0u64; MAX_DISTINCT_THRESHOLD as usize];
    let mut n = 0;
    for item in items {
        if n >= want {
            break;
        }
        if !seen[..n].contains(&item) {
            seen[n] = item;
            n += 1;
        }
    }
    n >= want
}

/// Per-key sliding-window state for one threshold clause (see the
/// module docs).
#[derive(Debug)]
pub struct ThresholdTable {
    /// In-window observations as of the last compaction, sorted.
    sorted: Vec<Entry>,
    /// Observations since, in arrival order.
    recent: Vec<Entry>,
    /// Latest observation time seen; the prune horizon trails it by one
    /// window.
    newest: SimTime,
    /// Entries the cap allows across both vectors.
    max_entries: usize,
    evicted: u64,
}

impl Default for ThresholdTable {
    fn default() -> ThresholdTable {
        ThresholdTable::new()
    }
}

impl ThresholdTable {
    /// An empty table bounded by [`TABLE_BYTES_CAP`]. Allocates nothing
    /// until the first observation.
    pub fn new() -> ThresholdTable {
        ThresholdTable::with_cap(TABLE_BYTES_CAP)
    }

    /// An empty table bounded by `bytes` (the cap is a constant in the
    /// product; tests shrink it to reach eviction cheaply).
    pub(crate) fn with_cap(bytes: usize) -> ThresholdTable {
        let max_entries = bytes / std::mem::size_of::<Entry>();
        assert!(max_entries > 2 * RECENT, "cap below the compaction buffer");
        ThresholdTable {
            sorted: Vec::new(),
            recent: Vec::new(),
            newest: SimTime::ZERO,
            max_entries,
            evicted: 0,
        }
    }

    /// Records one observation of `key` (counting `item` distinctly)
    /// and judges the clause **at the observation's own time**: over
    /// the key's observations in `[time − window, time]` (a late
    /// observation, older than the newest recorded, sees nothing older
    /// than one window behind that newest). Returns the
    /// `(count, distinct)` that crossed the clause the first time they
    /// do in the key's current campaign, `None` otherwise. `distinct`
    /// is 0 for a pure count clause.
    pub fn observe(
        &mut self,
        time: SimTime,
        key: u64,
        item: u64,
        spec: &ThresholdSpec,
    ) -> Option<(u32, u32)> {
        let (verdict, fired) = {
            let (run, fresh) = self.window(time, key, spec.window);
            let earlier = run.iter().chain(fresh).map(|e| e.item);
            let count = earlier.clone().count() as u32 + 1;
            let fired = earlier.clone().any(|item| item & FIRED != 0);
            if fired || count < spec.count_threshold {
                (None, fired)
            } else {
                let items = earlier.map(|item| item | FIRED).chain([item | FIRED]);
                let verdict = if spec.distinct_field.is_none() {
                    Some((count, 0))
                } else if fans_out(items.clone(), spec.distinct_threshold) {
                    let mut items: Vec<u64> = items.collect();
                    items.sort_unstable();
                    items.dedup();
                    // The probe is capped; the exact count has the last word.
                    (items.len() as u32 >= spec.distinct_threshold)
                        .then_some((count, items.len() as u32))
                } else {
                    None
                };
                (verdict, verdict.is_some())
            }
        };
        let item = if fired { item | FIRED } else { item & !FIRED };
        self.record(time, key, item, spec.window);
        verdict
    }

    /// Records one observation of `keys[side]` and judges a hysteresis
    /// clause over the key pair at the observation's own time:
    /// `count(n0, n1)` of the two keys' in-window tallies (this
    /// observation included) fires at `threshold`, and once fired the
    /// pair stays latched until the count falls below `threshold / 2`.
    /// The latch is the state the pair's newest in-window observation
    /// left, so it drains with the window. Returns the count that
    /// fired. Each tally is two binary searches plus a scan of the
    /// arrival buffer, never a walk of the window.
    pub(crate) fn observe_pair(
        &mut self,
        time: SimTime,
        keys: [u64; 2],
        side: usize,
        window: SimDuration,
        threshold: u32,
        count: impl FnOnce(u32, u32) -> u32,
    ) -> Option<u32> {
        let [a, b] = keys.map(|key| self.tally(time, key, window));
        let mut tallies = [a.0, b.0];
        tallies[side] += 1;
        // `(time, fired)` orders a fired observation after an unfired
        // one made at the same instant: either one's latch holds.
        let latched = a.1.max(b.1).is_some_and(|(_, fired)| fired);
        let count = count(tallies[0], tallies[1]);
        let fires = count >= threshold && !latched;
        let holds = fires || (latched && count >= threshold / 2);
        self.record(time, keys[side], if holds { FIRED } else { 0 }, window);
        fires.then_some(count)
    }

    /// `key`'s observations inside `[time − window, time]`: its slice of
    /// the sorted run, then its matching arrivals. A late observation
    /// (`time` before the newest one recorded) sees nothing older than
    /// one window behind that newest: the table does not retain it, so
    /// what is visible never depends on when it last compacted.
    fn window(
        &self,
        time: SimTime,
        key: u64,
        window: SimDuration,
    ) -> (&[Entry], impl Iterator<Item = &Entry> + Clone + '_) {
        let from = window_start(time.max(self.newest), window);
        let run = &self.sorted[self.sorted.partition_point(|e| (e.key, e.time) < (key, from))..];
        let run = &run[..run.partition_point(|e| (e.key, e.time) <= (key, time))];
        let fresh = self
            .recent
            .iter()
            .filter(move |e| e.key == key && from <= e.time && e.time <= time);
        (run, fresh)
    }

    /// `key`'s in-window count and its newest observation's
    /// `(time, fired)` — at a tie, fired if any is, as the sorted run
    /// orders a fired item last.
    fn tally(
        &self,
        time: SimTime,
        key: u64,
        window: SimDuration,
    ) -> (u32, Option<(SimTime, bool)>) {
        let newest = |e: &Entry| (e.time, e.item & FIRED != 0);
        let (run, fresh) = self.window(time, key, window);
        fresh.fold(
            (run.len() as u32, run.last().map(newest)),
            |(n, last), e| (n + 1, last.max(Some(newest(e)))),
        )
    }

    /// Stores one observation as given (its [`FIRED`] bit included),
    /// compacting against `window` when the arrival buffer is full.
    fn record(&mut self, time: SimTime, key: u64, item: u64, window: SimDuration) {
        self.recent.push(Entry { key, time, item });
        self.newest = self.newest.max(time);
        if self.recent.len() >= RECENT {
            self.compact(window);
        }
    }

    /// Merges the arrival buffer into the sorted run, drops what aged
    /// out of `window`, and evicts down to the low-water mark if the
    /// table is still over its cap.
    fn compact(&mut self, window: SimDuration) {
        self.recent.sort_unstable();
        let (mut i, mut j) = (self.sorted.len(), self.recent.len());
        let mut k = i + j;
        if k > self.sorted.capacity() {
            // Grow by doubling, but never past what the cap allows.
            let target = (2 * self.sorted.capacity()).clamp(k, self.max_entries - RECENT);
            self.sorted.reserve_exact(target - i);
        }
        self.sorted.resize(k, self.recent[0]);
        // In-place merge, back to front.
        while j > 0 {
            k -= 1;
            if i > 0 && self.sorted[i - 1] > self.recent[j - 1] {
                i -= 1;
                self.sorted[k] = self.sorted[i];
            } else {
                j -= 1;
                self.sorted[k] = self.recent[j];
            }
        }
        self.recent.clear();
        let horizon = window_start(self.newest, window);
        self.sorted.retain(|e| e.time >= horizon);
        // The next merge adds up to RECENT more before it can evict.
        let limit = self.max_entries - 2 * RECENT;
        if self.sorted.len() > limit {
            self.evict(limit - limit / 8);
        }
    }

    /// Trims every key holding more than `target / 2` entries to its
    /// newest `target / 2`, then drops whole keys — the one whose newest
    /// observation is oldest first, ties by key — until at most `target`
    /// entries remain.
    fn evict(&mut self, target: usize) {
        let before = self.sorted.len();
        let (mut read, mut write) = (0, 0);
        while read < before {
            let key = self.sorted[read].key;
            let end = read + self.sorted[read..].partition_point(|e| e.key == key);
            let from = read.max(end.saturating_sub(target / 2));
            self.sorted.copy_within(from..end, write);
            write += end - from;
            read = end;
        }
        self.sorted.truncate(write);
        self.evicted += (before - write) as u64;
        let mut excess = write.saturating_sub(target);
        if excess == 0 {
            return;
        }
        let mut keys: Vec<(SimTime, u64, usize)> = self
            .sorted
            .chunk_by(|a, b| a.key == b.key)
            .map(|run| (run[run.len() - 1].time, run[0].key, run.len()))
            .collect();
        keys.sort_unstable();
        let mut doomed = Vec::new();
        for (_, key, len) in keys {
            if excess == 0 {
                break;
            }
            excess = excess.saturating_sub(len);
            self.evicted += len as u64;
            doomed.push(key);
        }
        doomed.sort_unstable();
        self.sorted.retain(|e| doomed.binary_search(&e.key).is_err());
    }

    /// Distinct keys currently retained (a key whose window drained
    /// since the last compaction still counts until the next one).
    pub fn keys(&self) -> u64 {
        let settled = self.sorted.chunk_by(|a, b| a.key == b.key).count();
        let mut fresh: Vec<u64> = self
            .recent
            .iter()
            .map(|e| e.key)
            .filter(|k| self.sorted.binary_search_by(|e| e.key.cmp(k)).is_err())
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        (settled + fresh.len()) as u64
    }

    /// Observations dropped by cap eviction so far (monotonic). Each is
    /// a possible miss, never a false alarm.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Bytes the table pins; at most its cap.
    pub fn bytes(&self) -> u64 {
        ((self.sorted.capacity() + self.recent.capacity()) * std::mem::size_of::<Entry>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::builtin::{rapid_spec, RAPID_ATTEMPTS, RAPID_WINDOW};

    /// Feeds `calls` fan-out calls (a fresh callee each) from `key`,
    /// `gap` apart from `start`, returning every verdict.
    fn campaign(
        table: &mut ThresholdTable,
        key: u64,
        start: SimTime,
        gap: SimDuration,
        calls: u64,
    ) -> Vec<(SimTime, (u32, u32))> {
        let spec = rapid_spec();
        (0..calls)
            .filter_map(|i| {
                let t = start + gap * i;
                table
                    .observe(t, key, (start.as_micros() + i) << 1, &spec)
                    .map(|v| (t, v))
            })
            .collect()
    }

    /// 20,000 one-call keys sharing the window change nothing about the
    /// one real fan-out among them: its count is its own.
    #[test]
    fn other_keys_never_change_a_keys_count() {
        let spec = rapid_spec();
        let mut table = ThresholdTable::new();
        let mut verdicts = Vec::new();
        for i in 0..20_000u64 {
            let t = SimTime::from_millis(i);
            assert_eq!(table.observe(t, 1_000 + i, i << 1, &spec), None);
            if i % 1_000 == 0 {
                verdicts.extend(table.observe(t, 7, i << 1, &spec));
            }
        }
        // Twenty calls from key 7, one alert, with its own count.
        assert_eq!(verdicts, vec![(RAPID_ATTEMPTS, RAPID_ATTEMPTS)]);
        assert_eq!(table.keys(), 20_001);
        assert_eq!(table.evicted(), 0);
    }

    /// A burst that fits the window fires at its last call even though,
    /// by the time anything else is observed, its first has aged out.
    #[test]
    fn judged_at_the_observations_own_time() {
        let mut table = ThresholdTable::new();
        let span = RAPID_WINDOW.as_micros() - 1_000_000;
        let gap = SimDuration::from_micros(span / u64::from(RAPID_ATTEMPTS - 1));
        let fired = campaign(&mut table, 7, SimTime::ZERO, gap, u64::from(RAPID_ATTEMPTS));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].0, SimTime::ZERO + gap * u64::from(RAPID_ATTEMPTS - 1));
    }

    /// A campaign alerts once — at the crossing observation, with its
    /// own counts — however long it runs, and the key re-arms only
    /// after its window drains.
    #[test]
    fn fires_once_and_rearms_after_the_window_drains() {
        let mut table = ThresholdTable::new();
        let sec = SimDuration::from_secs(1);
        // Ninety calls a second apart: in-window observations overlap
        // the whole way, so the fired flag is inherited throughout.
        let twelfth = SimTime::from_secs(u64::from(RAPID_ATTEMPTS - 1));
        assert_eq!(
            campaign(&mut table, 7, SimTime::ZERO, sec, 90),
            vec![(twelfth, (RAPID_ATTEMPTS, RAPID_ATTEMPTS))]
        );
        // One window of silence later the same key can alert again.
        let later = SimTime::from_secs(89) + RAPID_WINDOW + sec;
        assert_eq!(campaign(&mut table, 7, later, sec, 14).len(), 1);
    }

    #[test]
    fn pure_count_clause_ignores_items() {
        let spec = ThresholdSpec {
            distinct_field: None,
            count_threshold: 3,
            ..rapid_spec()
        };
        let mut table = ThresholdTable::new();
        let at = SimTime::from_secs;
        assert_eq!(table.observe(at(1), 7, 0, &spec), None);
        assert_eq!(table.observe(at(2), 7, 0, &spec), None);
        assert_eq!(table.observe(at(3), 7, 0, &spec), Some((3, 0)));
        assert_eq!(table.observe(at(4), 7, 0, &spec), None);
    }

    /// Over the cap, whole keys go — oldest newest-observation first,
    /// ties by key — and every dropped observation is counted.
    #[test]
    fn cap_evicts_oldest_keys_first_and_counts_them() {
        let spec = rapid_spec();
        let entry = std::mem::size_of::<Entry>();
        let mut table = ThresholdTable::with_cap(512 * entry);
        // Two observations per key, both at the key's own second, keys
        // fed in descending order so key order and age order disagree.
        let mut fed = 0u64;
        while table.evicted() == 0 {
            let key = 10_000 - fed;
            let t = SimTime::from_millis(fed);
            assert_eq!(table.observe(t, key, 0, &spec), None);
            assert_eq!(table.observe(t, key, 2, &spec), None);
            fed += 1;
            assert!(table.bytes() <= 512 * entry as u64, "{} bytes", table.bytes());
        }
        // The first eviction dropped the oldest keys (the largest key
        // values here) down to 7/8 of the limit, whole keys only.
        let limit = 512 - 2 * RECENT;
        let kept = limit - limit / 8;
        assert_eq!(table.sorted.len(), kept);
        assert_eq!(table.evicted(), 2 * fed - kept as u64);
        let oldest_kept = 10_000 - (fed - 1) + (kept as u64 / 2 - 1);
        assert_eq!(table.sorted.last().map(|e| e.key), Some(oldest_kept));
        assert!(table.sorted.chunk_by(|a, b| a.key == b.key).all(|run| run.len() == 2));
        assert_eq!(table.keys(), kept as u64 / 2);
    }

    /// One key outgrowing the whole table loses its oldest observations,
    /// not its fired flag: a campaign many caps long alerts once, under
    /// the cap, with every trimmed observation counted.
    #[test]
    fn a_key_past_the_cap_keeps_its_newest_observations_and_stays_fired() {
        let spec = ThresholdSpec {
            distinct_field: None,
            count_threshold: 10,
            window: SimDuration::from_secs(3_600),
            ..rapid_spec()
        };
        let cap = 512 * std::mem::size_of::<Entry>();
        let mut table = ThresholdTable::with_cap(cap);
        let fired: Vec<_> = (0..3_000u64)
            .filter_map(|i| table.observe(SimTime::from_millis(i), 7, 0, &spec))
            .collect();
        assert_eq!(fired, vec![(10, 0)]);
        assert!(table.bytes() <= cap as u64, "{} bytes", table.bytes());
        assert!(table.evicted() > 2_000, "{} evicted", table.evicted());
        assert_eq!(table.keys(), 1);
    }

    /// Timestamps running backwards are tolerated: no panic, and a late
    /// observation counts only what lies inside its own window.
    #[test]
    fn out_of_order_timestamps_do_not_panic() {
        let spec = rapid_spec();
        let mut table = ThresholdTable::new();
        for i in 0..300u64 {
            let t = SimTime::from_secs(if i % 2 == 0 { 1_000 - i } else { i });
            table.observe(t, i % 5, i << 1, &spec);
        }
        assert_eq!(table.observe(SimTime::ZERO, 99, 0, &spec), None);
        assert!(table.keys() <= 6);
    }
}
