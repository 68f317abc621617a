//! Windowed distinct-item estimation: HLL-style registers per key
//! slot, windowed by the same epoch ring as
//! [`crate::rate::WindowedSketch`].
//!
//! Keys partition into `slots` by hash; each slot owns `registers`
//! one-byte HLL registers per ring bucket. An observation writes the
//! item's rank into the current bucket's register; a query unions (by
//! register max) the live buckets of the key's slot and applies the
//! HyperLogLog estimator with the linear-counting small-range
//! correction. Two properties matter for the detections built on top:
//!
//! * **Small counts are exact** while the observed items occupy
//!   distinct registers — linear counting `m·ln(m/V)` rounds to exactly
//!   `n` for `n ≪ m`. Guess-threshold crossings (3 distinct digest
//!   responses against 1024 registers) live in this regime.
//! * **Errors only inflate.** Keys sharing a slot pool their items, and
//!   ring quantisation can retain items up to one epoch past the
//!   window; both push the estimate up, never down — so a threshold
//!   crossing is never missed, matching the count-min direction.

use crate::rate::splitmix64;
use scidive_netsim::time::{SimDuration, SimTime};

const EMPTY_EPOCH: u64 = u64::MAX;

/// A windowed per-key distinct estimator (see module docs).
///
/// # Examples
///
/// ```
/// use scidive_core::rate::WindowedDistinct;
/// use scidive_netsim::time::{SimDuration, SimTime};
///
/// let mut d = WindowedDistinct::new(SimDuration::from_secs(30), 6, 32, 1024, 1);
/// let now = SimTime::from_secs(1);
/// assert_eq!(d.observe(now, 7, 100), 1);
/// assert_eq!(d.observe(now, 7, 101), 2);
/// assert_eq!(d.observe(now, 7, 100), 2); // repeat item
/// ```
#[derive(Debug, Clone)]
pub struct WindowedDistinct {
    bucket_width_us: u64,
    slots: usize,
    registers: usize,
    reg_bits: u32,
    seed: u64,
    high_epoch: u64,
    /// Epoch owned by each ring bucket ([`EMPTY_EPOCH`] = unused).
    epochs: Vec<u64>,
    /// Registers laid out `[bucket][slot][register]`.
    regs: Vec<u8>,
}

impl WindowedDistinct {
    /// Creates an estimator over `window` with `buckets` ring slots
    /// (min 2), `slots` key partitions (min 1) and `registers` HLL
    /// registers per partition (rounded up to a power of two, min 16).
    pub fn new(
        window: SimDuration,
        buckets: usize,
        slots: usize,
        registers: usize,
        seed: u64,
    ) -> WindowedDistinct {
        let buckets = buckets.max(2);
        let slots = slots.max(1);
        let registers = registers.next_power_of_two().max(16);
        WindowedDistinct {
            bucket_width_us: window.as_micros().div_ceil(buckets as u64 - 1).max(1),
            slots,
            registers,
            reg_bits: registers.trailing_zeros(),
            seed,
            high_epoch: 0,
            epochs: vec![EMPTY_EPOCH; buckets],
            regs: vec![0; buckets * slots * registers],
        }
    }

    fn epoch_of(&self, now: SimTime) -> u64 {
        now.as_micros() / self.bucket_width_us
    }

    fn live(&self, epoch: u64, high: u64) -> bool {
        epoch != EMPTY_EPOCH && epoch <= high && high - epoch < self.epochs.len() as u64
    }

    fn slot_of(&self, key: u64) -> usize {
        (splitmix64(key ^ self.seed) % self.slots as u64) as usize
    }

    fn region(&self, bucket: usize, slot: usize) -> usize {
        (bucket * self.slots + slot) * self.registers
    }

    /// Rolls the ring forward to `now`'s epoch, zeroing buckets that
    /// fell out of the live range (time regressions clamp to the
    /// high-water epoch).
    pub fn advance(&mut self, now: SimTime) {
        let e = self.epoch_of(now).max(self.high_epoch);
        if e == self.high_epoch {
            return;
        }
        let len = self.epochs.len() as u64;
        for b in 0..self.epochs.len() {
            let epoch = self.epochs[b];
            if epoch != EMPTY_EPOCH && !(epoch <= e && e - epoch < len) {
                let start = self.region(b, 0);
                self.regs[start..start + self.slots * self.registers].fill(0);
                self.epochs[b] = EMPTY_EPOCH;
            }
        }
        self.high_epoch = e;
    }

    /// Records `item` under `key` at `now` and returns the key's new
    /// windowed distinct estimate.
    pub fn observe(&mut self, now: SimTime, key: u64, item: u64) -> u32 {
        self.advance(now);
        let e = self.high_epoch;
        let bucket = (e % self.epochs.len() as u64) as usize;
        if self.epochs[bucket] != e {
            let start = self.region(bucket, 0);
            self.regs[start..start + self.slots * self.registers].fill(0);
            self.epochs[bucket] = e;
        }
        let slot = self.slot_of(key);
        let h = splitmix64(item.wrapping_add(splitmix64(self.seed ^ key)));
        let idx = (h & (self.registers as u64 - 1)) as usize;
        let w = h >> self.reg_bits;
        let rho = if w == 0 {
            (64 - self.reg_bits + 1) as u8
        } else {
            (w.trailing_zeros() + 1) as u8
        };
        let at = self.region(bucket, slot) + idx;
        if self.regs[at] < rho {
            self.regs[at] = rho;
        }
        self.estimate_at(e, key)
    }

    /// The key's windowed distinct estimate as of `now` (read-only).
    pub fn estimate(&self, now: SimTime, key: u64) -> u32 {
        self.estimate_at(self.epoch_of(now).max(self.high_epoch), key)
    }

    fn estimate_at(&self, high: u64, key: u64) -> u32 {
        let slot = self.slot_of(key);
        let m = self.registers;
        let mut zeros = 0usize;
        let mut denom = 0f64;
        for j in 0..m {
            let mut r = 0u8;
            for b in 0..self.epochs.len() {
                if self.live(self.epochs[b], high) {
                    r = r.max(self.regs[self.region(b, slot) + j]);
                }
            }
            if r == 0 {
                zeros += 1;
            }
            denom += (-(f64::from(r))).exp2();
        }
        let m_f = m as f64;
        if zeros > 0 {
            // Linear counting: exact for small cardinalities while
            // registers stay collision free.
            (m_f * (m_f / zeros as f64).ln()).round() as u32
        } else {
            let alpha = 0.7213 / (1.0 + 1.079 / m_f);
            (alpha * m_f * m_f / denom).round() as u32
        }
    }

    /// Bytes pinned by the register file and ring bookkeeping.
    pub fn bytes(&self) -> usize {
        self.regs.len() + self.epochs.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn estimator() -> WindowedDistinct {
        WindowedDistinct::new(SimDuration::from_secs(30), 6, 32, 1024, 3)
    }

    #[test]
    fn small_counts_are_exact() {
        let mut d = estimator();
        let now = SimTime::from_secs(1);
        let mut seen = HashSet::new();
        for item in 0..20u64 {
            seen.insert(item);
            let est = d.observe(now, 9, item);
            assert_eq!(est, seen.len() as u32, "inexact at n={}", seen.len());
            // Repeats never move the estimate.
            assert_eq!(d.observe(now, 9, item), est);
        }
    }

    #[test]
    fn keys_are_windowed_independently() {
        let mut d = estimator();
        let t0 = SimTime::from_secs(1);
        d.observe(t0, 1, 100);
        d.observe(t0, 1, 101);
        d.observe(t0, 2, 100);
        assert_eq!(d.estimate(t0, 1), 2);
        assert_eq!(d.estimate(t0, 2), 1);
        // Outside the window everything is forgotten.
        let later = SimTime::from_secs(120);
        assert_eq!(d.estimate(later, 1), 0);
        assert_eq!(d.observe(later, 1, 100), 1);
    }

    #[test]
    fn estimate_tracks_large_cardinalities_approximately() {
        let mut d = estimator();
        let now = SimTime::from_secs(1);
        let mut est = 0;
        for item in 0..5_000u64 {
            est = d.observe(now, 4, item);
        }
        let err = (f64::from(est) - 5_000.0).abs() / 5_000.0;
        assert!(err < 0.15, "estimate {est} off by {err:.2}");
    }

    #[test]
    fn bytes_are_constant() {
        let mut d = estimator();
        let before = d.bytes();
        for i in 0..20_000u64 {
            d.observe(SimTime::from_millis(i * 7), i % 100, i);
        }
        assert_eq!(d.bytes(), before);
    }
}
