//! Rate state for flood-style detections: one exact per-key window
//! table decides every rate clause.
//!
//! SCIDIVE's §3.3 detections (REGISTER-flood DoS, password guessing)
//! and the SPIT-style rapid-connection pattern are fundamentally *rate*
//! questions: how many events keyed by some identity fell inside a
//! sliding window, and how many of them were distinct.
//!
//! All of them are answered exactly, by one type: [`ThresholdTable`], a
//! capped table of each key's in-window observations. No key's count
//! can be raised by another key's traffic, and what the cap drops is
//! counted.
//!
//! * **Threshold clauses** (`rapid-connect` and every DSL `threshold`
//!   rule): a single engine's [`crate::rules::ThresholdRule`] owns one
//!   table; under the sharded pipeline the workers forward observations
//!   raw through their [`RateHub`] and the dispatcher's
//!   [`GlobalRatePlane`] replays them through the same type, so the
//!   decision cannot depend on the shard count.
//! * **The identity plane** ([`crate::event::IdentityPlane`]) decides
//!   the REGISTER flood (request/4xx alternations with hysteresis) and
//!   password guessing (distinct digest responses) on two tables of its
//!   own. It sees every SIP footprint in every deployment, so it needs
//!   no fold.
//!
//! Everything is deterministic: hashing is seeded ([`RateConfig::seed`]),
//! time is virtual ([`SimTime`]), and no structure ever consults a wall
//! clock — so runs replay byte-identically and the differential suite
//! (`tests/rate_equivalence.rs`) can pin the alert streams of every
//! shard count against each other.

pub mod fold;
pub mod table;

pub use fold::{FoldConfig, FoldStats, GlobalRatePlane};
pub use table::{ThresholdTable, TABLE_BYTES_CAP};

use scidive_netsim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// The default deterministic hash seed for rate-table keys.
pub const DEFAULT_RATE_SEED: u64 = 0x5c1d_0d1f_f00d_5eed;

/// Finalising mixer (splitmix64): cheap, deterministic, and good enough
/// avalanche for hashed window keys.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seeded FNV-1a over byte parts with a part separator (so
/// `["ab","c"]` and `["a","bc"]` hash differently), finished through
/// [`splitmix64`]. The one way keys (addresses, AORs, digest responses)
/// become the `u64` keys and items every table in this module stores.
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

/// Rate-state settings, part of [`crate::engine::ScidiveConfig`].
#[derive(Debug, Clone)]
pub struct RateConfig {
    /// Hash seed for threshold-clause window keys and items.
    pub seed: u64,
}

impl Default for RateConfig {
    fn default() -> RateConfig {
        RateConfig {
            seed: DEFAULT_RATE_SEED,
        }
    }
}

/// Telemetry snapshot of rate state: the bytes it pins and the
/// observations table caps dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RateStats {
    /// Total bytes pinned by rate state.
    pub bytes: u64,
    /// Observations dropped by table cap eviction (monotonic).
    pub evicted: u64,
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
    /// The summed `display` capacity of what [`RateHub::forward`] queued,
    /// so [`RateHub::stats`] need not walk the observations.
    text_bytes: usize,
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
    /// worker with the fold plane off). `_exact` is inert — every rate
    /// clause keeps exact state — and is accepted for source
    /// compatibility only.
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

    /// Hashes key parts into a window key with the hub's seed.
    pub fn key(&self, parts: &[&[u8]]) -> u64 {
        hash_parts(self.config.seed, parts)
    }

    /// Queues one threshold-clause observation for the fold plane
    /// (aggregated mode); shipped by the next [`RateHub::take_delta`].
    pub fn forward(&self, clause: &'static str, key: u64, time: SimTime, item: u64, display: &str) {
        let display = display.to_string();
        let mut delta = self.delta.borrow_mut();
        delta.text_bytes += display.capacity();
        delta.observations.push(RateObservation {
            clause,
            key,
            time,
            item,
            display,
        });
    }

    /// Swaps out the observations accumulated since the last fold
    /// barrier.
    pub fn take_delta(&self) -> RateDelta {
        self.delta.take()
    }

    /// Telemetry snapshot: the bytes queued for the next fold (zero
    /// outside aggregated mode), in constant time.
    pub fn stats(&self) -> RateStats {
        let delta = self.delta.borrow();
        let queued = delta.observations.capacity() * std::mem::size_of::<RateObservation>();
        RateStats {
            bytes: (queued + delta.text_bytes) as u64,
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

    /// The bytes `stats` reports without walking the delta equal the
    /// walk, after forwards and after a take.
    #[test]
    fn stats_equal_a_walk_of_the_delta() {
        let walk = |hub: &RateHub| {
            let delta = hub.delta.borrow();
            let queued = delta.observations.capacity() * std::mem::size_of::<RateObservation>();
            let text: usize = delta.observations.iter().map(|o| o.display.capacity()).sum();
            (queued + text) as u64
        };
        let hub = RateHub::new_aggregated(RateConfig::default(), false);
        for round in 0..3 {
            for n in 0..(5 + round * 7) {
                let display = "x".repeat(n * 3);
                hub.forward("c", n as u64, SimTime::from_millis(n as u64), 0, &display);
                assert_eq!(hub.stats().bytes, walk(&hub));
            }
            hub.take_delta();
            assert_eq!(hub.stats().bytes, walk(&hub));
            assert_eq!(hub.stats().bytes, 0);
        }
    }
}
