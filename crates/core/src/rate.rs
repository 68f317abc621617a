//! Rate state for flood-style detections: the identity plane's
//! constant-memory sketches, and the exact per-key table that decides
//! threshold clauses.
//!
//! SCIDIVE's §3.3 detections (REGISTER-flood DoS, password guessing)
//! and the SPIT-style rapid-connection pattern are fundamentally *rate*
//! questions: how many events keyed by some identity fell inside a
//! sliding window, and how many of them were distinct.
//!
//! **Threshold clauses** (`rapid-connect` and every DSL `threshold`
//! rule) are answered exactly, by one type: [`ThresholdTable`], a capped
//! table of each key's in-window observations. A single engine's
//! [`crate::rules::ThresholdRule`] owns one; under the sharded pipeline
//! the workers forward observations raw through their [`RateHub`] and
//! the dispatcher's [`GlobalRatePlane`] replays them through the same
//! type, so the decision cannot depend on the shard count or on any
//! other key's traffic.
//!
//! **The identity plane** ([`crate::event::IdentityPlane`]) keeps its
//! flood/guess state behind the
//! [`crate::engine::ScidiveConfig::exact_rate_state`] switch: exact
//! per-key queues, or the sketch primitives below in memory
//! independent of the key population:
//!
//! * [`CountMinSketch`] — point-frequency estimation with conservative
//!   update. Never undercounts; overcounts by at most `ε·N` with
//!   probability `1 − δ` when sized via [`CountMinSketch::with_error`].
//! * [`WindowedSketch`] — a ring of `B` count-min buckets quantising a
//!   sliding window. The live buckets always cover at least the full
//!   window, so it never undercounts the exact windowed count; it may
//!   overcount by events up to one bucket width (`⌈W/(B−1)⌉`) older
//!   than the window, plus the sketch collision error.
//! * [`WindowedDistinct`] — an HLL-style distinct estimator per key
//!   slot, windowed by the same bucket ring. Small cardinalities use
//!   linear counting, which is exact while registers stay collision
//!   free — the regime the guess-threshold crossings live in.
//! * [`LatchSet`] — a fixed bitset replacing per-key `emitted` flags.
//!
//! Everything is deterministic: hashing is seeded ([`RateConfig::seed`]),
//! time is virtual ([`SimTime`]), and no structure ever consults a wall
//! clock — so runs replay byte-identically and the differential suite
//! (`tests/rate_equivalence.rs`) can pin the alert streams of both
//! modes and every shard count against each other.

pub mod cms;
pub mod distinct;
pub mod fold;
pub mod table;
pub mod window;

pub use cms::CountMinSketch;
pub use distinct::WindowedDistinct;
pub use fold::{FoldConfig, FoldStats, GlobalRatePlane};
pub use table::{ThresholdTable, TABLE_BYTES_CAP};
pub use window::WindowedSketch;

use scidive_netsim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// The default deterministic hash seed for all rate trackers.
pub const DEFAULT_RATE_SEED: u64 = 0x5c1d_0d1f_f00d_5eed;

/// Finalising mixer (splitmix64): cheap, deterministic, and good enough
/// avalanche for sketch indexing.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seeded FNV-1a over byte parts with a part separator (so
/// `["ab","c"]` and `["a","bc"]` hash differently), finished through
/// [`splitmix64`]. The one way keys (addresses, AORs, digest responses)
/// become the `u64`s every sketch in this module consumes.
pub fn hash_parts(seed: u64, parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    splitmix64(h)
}

/// Dimensioning for the sketch structures, part of
/// [`crate::engine::ScidiveConfig`]. The defaults hold every tracker a
/// default engine creates under ~1 MiB total — constant, regardless of
/// how many sources or dialogs the traffic carries.
#[derive(Debug, Clone)]
pub struct RateConfig {
    /// Hash seed shared by every tracker (per-tracker seeds are derived
    /// from it and the tracker name).
    pub seed: u64,
    /// Count-min sketch width (counters per row).
    pub counter_width: usize,
    /// Count-min sketch depth (rows).
    pub counter_depth: usize,
    /// Ring buckets per sliding window (`B`); the window is quantised
    /// to `⌈W/(B−1)⌉`-wide epochs so the live ring always covers it.
    pub window_buckets: usize,
    /// Key slots per distinct estimator (keys hashing to the same slot
    /// pool their distinct counts — an overestimate, never an
    /// undercount).
    pub distinct_slots: usize,
    /// HLL registers per distinct slot (rounded up to a power of two).
    pub distinct_registers: usize,
    /// Ring buckets per distinct estimator window.
    pub distinct_buckets: usize,
    /// Bits per latch set (rounded up to a power of two).
    pub latch_bits: usize,
}

impl Default for RateConfig {
    fn default() -> RateConfig {
        RateConfig {
            seed: DEFAULT_RATE_SEED,
            counter_width: 1024,
            counter_depth: 4,
            window_buckets: 8,
            distinct_slots: 32,
            distinct_registers: 1024,
            distinct_buckets: 6,
            latch_bits: 8192,
        }
    }
}

impl RateConfig {
    /// The derived seed for a named tracker.
    pub fn tracker_seed(&self, name: &str) -> u64 {
        splitmix64(self.seed ^ hash_parts(self.seed, &[name.as_bytes()]))
    }
}

/// Telemetry snapshot of the rate trackers: how many exist, how many
/// bytes they pin, and — in exact mode, where the sketches shadow the
/// exact state — how far the estimates diverged from the truth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RateStats {
    /// Live tracker structures (sketches, estimators, latch sets).
    pub trackers: u64,
    /// Total bytes pinned by tracker state.
    pub bytes: u64,
    /// Estimate-vs-exact comparisons recorded (shadow mode only).
    pub divergence_samples: u64,
    /// Sum of absolute estimate-vs-exact differences.
    pub divergence_sum: u64,
    /// Largest single estimate-vs-exact difference.
    pub divergence_max: u64,
}

impl RateStats {
    /// Folds another snapshot into this one (shard merge): sizes and
    /// sums add, the divergence maximum takes the max.
    pub fn absorb(&mut self, other: RateStats) {
        self.trackers += other.trackers;
        self.bytes += other.bytes;
        self.divergence_samples += other.divergence_samples;
        self.divergence_sum += other.divergence_sum;
        self.divergence_max = self.divergence_max.max(other.divergence_max);
    }

    /// Records one estimate-vs-exact comparison.
    pub fn record_divergence(&mut self, estimated: u32, exact: u32) {
        let d = u64::from(estimated.abs_diff(exact));
        self.divergence_samples += 1;
        self.divergence_sum += d;
        self.divergence_max = self.divergence_max.max(d);
    }
}

/// A fixed bitset of sticky per-key flags — the constant-memory stand-in
/// for per-key `emitted` booleans. Two keys may share a bit (bounded by
/// `bits`); a collision can only *suppress* a duplicate alert, never
/// invent one.
#[derive(Debug, Clone)]
pub struct LatchSet {
    words: Vec<u64>,
    mask: u64,
    seed: u64,
}

impl LatchSet {
    /// Creates a latch set of at least `bits` bits (rounded up to a
    /// power of two, minimum 64).
    pub fn new(bits: usize, seed: u64) -> LatchSet {
        let bits = bits.next_power_of_two().max(64);
        LatchSet {
            words: vec![0; bits / 64],
            mask: bits as u64 - 1,
            seed,
        }
    }

    fn locate(&self, key: u64) -> (usize, u64) {
        let bit = splitmix64(key ^ self.seed) & self.mask;
        ((bit / 64) as usize, 1u64 << (bit % 64))
    }

    /// Whether the key's latch is set.
    pub fn get(&self, key: u64) -> bool {
        let (w, m) = self.locate(key);
        self.words[w] & m != 0
    }

    /// Sets or clears the key's latch.
    pub fn put(&mut self, key: u64, on: bool) {
        let (w, m) = self.locate(key);
        if on {
            self.words[w] |= m;
        } else {
            self.words[w] &= !m;
        }
    }

    /// Clears every latch.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Bytes pinned by the bitset.
    pub fn bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// One threshold-clause observation a shard worker ships, raw, to the
/// fold plane: which clause, whose window (`key`), when, the distinct
/// item's hash, and the key's text for the alert message (the table
/// stores hashes only, so the text travels with the observation that
/// may complete the clause).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RateObservation {
    /// The clause name, e.g. `"rapid-connect"`.
    pub clause: &'static str,
    /// The window key (seeded hash of clause and key-field text).
    pub key: u64,
    /// Capture time of the observed event.
    pub time: SimTime,
    /// Hash of the distinct-field text (0 for a pure count clause).
    pub item: u64,
    /// The key-field text, e.g. the caller AOR.
    pub display: String,
}

/// One shard's contribution to a fold: every threshold-clause
/// observation since the last one, in this shard's event order.
#[derive(Debug, Default)]
pub struct RateDelta {
    /// The observations.
    pub observations: Vec<RateObservation>,
}

/// What rules reach through [`crate::rules::RuleCtx::rates`]: the seeded
/// key hash, and — for a shard worker under the fold plane
/// ([`RateHub::new_aggregated`]) — the outbox threshold rules
/// [`RateHub::forward`] their observations into instead of judging a
/// slice of the stream locally. [`RateHub::take_delta`] empties it at
/// each fold barrier.
///
/// Interior mutability (the engine is single-threaded per worker) lets
/// rules forward through the shared `&RuleCtx` they already receive,
/// without widening the `Rule::on_event` contract.
#[derive(Debug)]
pub struct RateHub {
    aggregated: bool,
    config: RateConfig,
    delta: RefCell<RateDelta>,
}

impl Default for RateHub {
    /// A local-evaluation hub with default dimensioning — what a default
    /// engine owns, and the convenient hub for tests and benches that
    /// construct a [`crate::rules::RuleCtx`] by hand.
    fn default() -> RateHub {
        RateHub::new(RateConfig::default(), true)
    }
}

impl RateHub {
    /// Creates a hub for local evaluation (a single engine, or a shard
    /// worker with the fold plane off). Only `config.seed` is consulted.
    /// `_exact` is accepted for source compatibility and ignored:
    /// threshold rules keep exact state in every mode, and
    /// [`crate::engine::ScidiveConfig::exact_rate_state`] now selects
    /// the identity plane's store only.
    pub fn new(config: RateConfig, _exact: bool) -> RateHub {
        RateHub {
            aggregated: false,
            config,
            delta: RefCell::default(),
        }
    }

    /// Creates a hub in aggregated (fold-plane) mode for a shard
    /// worker: threshold rules forward every observation to the
    /// dispatcher's [`GlobalRatePlane`] instead of evaluating locally.
    pub fn new_aggregated(config: RateConfig, exact: bool) -> RateHub {
        RateHub {
            aggregated: true,
            ..RateHub::new(config, exact)
        }
    }

    /// Whether this hub feeds a fold plane (forward-only mode).
    pub fn aggregated(&self) -> bool {
        self.aggregated
    }

    /// Hashes identity parts into a window key with the hub's seed.
    pub fn key(&self, parts: &[&[u8]]) -> u64 {
        hash_parts(self.config.seed, parts)
    }

    /// Queues one threshold-clause observation for the fold plane
    /// (aggregated mode); shipped by the next [`RateHub::take_delta`].
    pub fn forward(&self, clause: &'static str, key: u64, time: SimTime, item: u64, display: &str) {
        self.delta.borrow_mut().observations.push(RateObservation {
            clause,
            key,
            time,
            item,
            display: display.to_string(),
        });
    }

    /// Swaps out the observations accumulated since the last fold
    /// barrier.
    pub fn take_delta(&self) -> RateDelta {
        self.delta.take()
    }

    /// Telemetry snapshot: the bytes queued for the next fold (zero
    /// outside aggregated mode).
    pub fn stats(&self) -> RateStats {
        let delta = self.delta.borrow();
        let queued = delta.observations.capacity() * std::mem::size_of::<RateObservation>();
        let text: usize = delta.observations.iter().map(|o| o.display.capacity()).sum();
        RateStats {
            bytes: (queued + text) as u64,
            ..RateStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_parts_separates_part_boundaries() {
        let s = DEFAULT_RATE_SEED;
        assert_ne!(
            hash_parts(s, &[b"ab", b"c"]),
            hash_parts(s, &[b"a", b"bc"])
        );
        assert_ne!(hash_parts(s, &[b"x"]), hash_parts(s ^ 1, &[b"x"]));
        assert_eq!(hash_parts(s, &[b"x"]), hash_parts(s, &[b"x"]));
    }

    #[test]
    fn latch_set_sets_and_clears() {
        let mut a = LatchSet::new(128, 7);
        a.put(1, true);
        assert!(a.get(1) && !a.get(2));
        a.put(2, true);
        a.put(1, false);
        assert!(!a.get(1) && a.get(2));
        a.clear_all();
        assert!(!a.get(2));
        assert_eq!(a.bytes(), 16);
    }

    #[test]
    fn hub_forwards_only_what_it_was_given_and_empties_on_take() {
        let hub = RateHub::new_aggregated(RateConfig::default(), false);
        assert!(hub.aggregated() && !RateHub::default().aggregated());
        assert_eq!(hub.stats().bytes, 0);
        let k = hub.key(&[b"caller"]);
        assert_eq!(k, RateHub::default().key(&[b"caller"]));
        hub.forward("c", k, SimTime::from_secs(1), 9, "sip:a@lab");
        assert!(hub.stats().bytes > 0);
        let delta = hub.take_delta();
        assert_eq!(
            delta.observations,
            vec![RateObservation {
                clause: "c",
                key: k,
                time: SimTime::from_secs(1),
                item: 9,
                display: "sip:a@lab".to_string(),
            }]
        );
        assert!(hub.take_delta().observations.is_empty());
        assert_eq!(hub.stats().bytes, 0);
    }

    #[test]
    fn rate_stats_absorb_sums_and_maxes() {
        let mut a = RateStats {
            trackers: 1,
            bytes: 100,
            divergence_samples: 2,
            divergence_sum: 3,
            divergence_max: 2,
        };
        a.record_divergence(7, 4);
        assert_eq!(a.divergence_max, 3);
        let b = RateStats {
            trackers: 2,
            bytes: 50,
            divergence_samples: 1,
            divergence_sum: 9,
            divergence_max: 9,
        };
        a.absorb(b);
        assert_eq!(a.trackers, 3);
        assert_eq!(a.bytes, 150);
        assert_eq!(a.divergence_samples, 4);
        assert_eq!(a.divergence_sum, 15);
        assert_eq!(a.divergence_max, 9);
    }
}
