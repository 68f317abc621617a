//! Sliding-window counting over a ring of count-min buckets.
//!
//! Virtual time is quantised into epochs of `⌈W/(B−1)⌉` microseconds
//! (`W` the window, `B` the ring size). The ring keeps the `B` most
//! recent epochs; since `(B−1)` full epochs already span at least `W`,
//! the live ring always covers the entire exact window no matter where
//! inside its epoch "now" falls — so the windowed estimate **never
//! undercounts** the exact sliding-window count. It may overcount by
//! events up to one epoch older than the window (quantisation
//! staleness) plus whatever the per-bucket sketches overcount by
//! (collisions).
//!
//! The retention rule is exactly: an event observed in epoch `e` is
//! counted by a query in epoch `e_now` iff `e_now − e < B`. The
//! property suite (`crates/core/tests/properties.rs`) pins a single-key
//! tracker — where the sketches are collision-free and therefore exact
//! — against a timestamp-queue oracle implementing that same rule, for
//! arbitrary interleavings of observe and advance.

use crate::rate::cms::CountMinSketch;
use scidive_netsim::time::{SimDuration, SimTime};

const EMPTY_EPOCH: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct Bucket {
    epoch: u64,
    sketch: CountMinSketch,
}

/// A sliding-window frequency estimator (see module docs).
///
/// # Examples
///
/// ```
/// use scidive_core::rate::WindowedSketch;
/// use scidive_netsim::time::{SimDuration, SimTime};
///
/// let mut w = WindowedSketch::new(SimDuration::from_secs(10), 8, 256, 4, 1);
/// assert_eq!(w.observe(SimTime::from_secs(1), 42), 1);
/// assert_eq!(w.observe(SimTime::from_secs(2), 42), 2);
/// // Far outside the window the old observations have rolled away.
/// assert_eq!(w.observe(SimTime::from_secs(60), 42), 1);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedSketch {
    window: SimDuration,
    bucket_width_us: u64,
    high_epoch: u64,
    buckets: Vec<Bucket>,
}

impl WindowedSketch {
    /// Creates a windowed sketch over `window` with `buckets` ring
    /// slots (clamped to at least 2), each a `width × depth` count-min
    /// sketch seeded from `seed`.
    pub fn new(
        window: SimDuration,
        buckets: usize,
        width: usize,
        depth: usize,
        seed: u64,
    ) -> WindowedSketch {
        let buckets = buckets.max(2);
        let bucket_width_us = window
            .as_micros()
            .div_ceil(buckets as u64 - 1)
            .max(1);
        WindowedSketch {
            window,
            bucket_width_us,
            high_epoch: 0,
            buckets: (0..buckets)
                .map(|_| Bucket {
                    epoch: EMPTY_EPOCH,
                    sketch: CountMinSketch::new(width, depth, seed),
                })
                .collect(),
        }
    }

    /// The configured window.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// The epoch quantum: events may be retained up to this long past
    /// the window's edge.
    pub fn bucket_width(&self) -> SimDuration {
        SimDuration::from_micros(self.bucket_width_us)
    }

    fn epoch_of(&self, now: SimTime) -> u64 {
        now.as_micros() / self.bucket_width_us
    }

    fn live(&self, epoch: u64, high: u64) -> bool {
        epoch <= high && high - epoch < self.buckets.len() as u64
    }

    /// Rolls the ring forward to `now`'s epoch, clearing buckets that
    /// fell out of the live range. Time regressions are clamped to the
    /// high-water epoch, keeping the structure monotone.
    pub fn advance(&mut self, now: SimTime) {
        let e = self.epoch_of(now).max(self.high_epoch);
        if e == self.high_epoch && self.buckets[(e % self.buckets.len() as u64) as usize].epoch == e
        {
            return;
        }
        let len = self.buckets.len() as u64;
        for bucket in &mut self.buckets {
            if bucket.epoch != EMPTY_EPOCH && !(bucket.epoch <= e && e - bucket.epoch < len) {
                bucket.sketch.clear();
                bucket.epoch = EMPTY_EPOCH;
            }
        }
        self.high_epoch = e;
    }

    /// Records one occurrence of `key` at `now` and returns the new
    /// windowed estimate.
    pub fn observe(&mut self, now: SimTime, key: u64) -> u32 {
        self.advance(now);
        let e = self.high_epoch;
        let slot = (e % self.buckets.len() as u64) as usize;
        let bucket = &mut self.buckets[slot];
        if bucket.epoch != e {
            bucket.sketch.clear();
            bucket.epoch = e;
        }
        bucket.sketch.observe(key);
        self.estimate_at(e, key)
    }

    /// The windowed estimate of `key` as of `now` (read-only: stale
    /// buckets are excluded without mutating the ring).
    pub fn estimate(&self, now: SimTime, key: u64) -> u32 {
        self.estimate_at(self.epoch_of(now).max(self.high_epoch), key)
    }

    fn estimate_at(&self, high: u64, key: u64) -> u32 {
        let mut sum = 0u32;
        for bucket in &self.buckets {
            if bucket.epoch != EMPTY_EPOCH && self.live(bucket.epoch, high) {
                sum = sum.saturating_add(bucket.sketch.estimate(key));
            }
        }
        sum
    }

    /// Bytes pinned by the ring.
    pub fn bytes(&self) -> usize {
        self.buckets.iter().map(|b| b.sketch.bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch() -> WindowedSketch {
        WindowedSketch::new(SimDuration::from_secs(10), 8, 256, 4, 77)
    }

    #[test]
    fn bucket_width_covers_the_window() {
        let w = sketch();
        // ceil(10s / 7) and 7 full epochs span >= the window.
        assert_eq!(w.bucket_width().as_micros(), 1_428_572);
        assert!(w.bucket_width().as_micros() * 7 >= 10_000_000);
    }

    #[test]
    fn counts_within_window_and_forgets_after() {
        let mut w = sketch();
        for s in 0..5 {
            w.observe(SimTime::from_secs(s), 9);
        }
        assert_eq!(w.estimate(SimTime::from_secs(5), 9), 5);
        // All five fall out once the ring rolls well past the window.
        assert_eq!(w.estimate(SimTime::from_secs(40), 9), 0);
        assert_eq!(w.observe(SimTime::from_secs(40), 9), 1);
    }

    #[test]
    fn never_undercounts_the_exact_window() {
        let mut w = sketch();
        let window = SimDuration::from_secs(10);
        let mut times: Vec<SimTime> = Vec::new();
        // Irregular spacing crossing many epoch boundaries.
        for i in 0..100u64 {
            let t = SimTime::from_millis(i * 731);
            times.push(t);
            let est = w.observe(t, 5);
            let exact = times
                .iter()
                .filter(|&&x| t.saturating_since(x) <= window)
                .count() as u32;
            assert!(est >= exact, "undercounted at {t}: {est} < {exact}");
        }
    }

    #[test]
    fn staleness_is_bounded_by_one_bucket() {
        let mut w = sketch();
        let lookback = w.bucket_width() + w.window();
        let mut times: Vec<SimTime> = Vec::new();
        for i in 0..200u64 {
            let t = SimTime::from_millis(i * 317);
            times.push(t);
            let est = w.observe(t, 5);
            // Single key, wide sketch: only quantisation staleness can
            // inflate the count, and only by events within one extra
            // bucket width.
            let loose = times
                .iter()
                .filter(|&&x| t.saturating_since(x) <= lookback)
                .count() as u32;
            assert!(est <= loose, "stale beyond a bucket at {t}");
        }
    }

    #[test]
    fn time_regression_is_clamped() {
        let mut w = sketch();
        w.observe(SimTime::from_secs(5), 1);
        // An out-of-order early frame must not resurrect or shift state.
        assert_eq!(w.observe(SimTime::from_secs(1), 1), 2);
        assert_eq!(w.estimate(SimTime::from_secs(5), 1), 2);
    }

    #[test]
    fn bytes_are_constant() {
        let mut w = sketch();
        let before = w.bytes();
        for i in 0..50_000u64 {
            w.observe(SimTime::from_millis(i), i);
        }
        assert_eq!(w.bytes(), before);
    }
}
