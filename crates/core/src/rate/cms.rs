//! Count-min sketch with conservative update.
//!
//! A `depth × width` grid of `u32` counters. Each key hashes to one
//! counter per row; the frequency estimate is the minimum over its
//! counters, so collisions can only inflate the answer — the sketch
//! **never undercounts**. Conservative update raises each of the key's
//! counters only as far as `estimate + 1`, which keeps collision noise
//! well below the classical bound in practice while preserving the
//! never-undercount guarantee.

use crate::rate::splitmix64;

/// A count-min sketch (see module docs).
///
/// # Examples
///
/// ```
/// use scidive_core::rate::CountMinSketch;
///
/// let mut s = CountMinSketch::new(64, 4, 42);
/// assert_eq!(s.observe(7), 1);
/// assert_eq!(s.observe(7), 2);
/// assert_eq!(s.estimate(7), 2);
/// assert_eq!(s.estimate(8), 0);
/// ```
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    row_seeds: Vec<u64>,
    counters: Vec<u32>,
}

impl CountMinSketch {
    /// Creates a sketch of `depth` rows of `width` counters (both
    /// clamped to at least 1), hashed with the given seed.
    pub fn new(width: usize, depth: usize, seed: u64) -> CountMinSketch {
        let width = width.max(1);
        let depth = depth.max(1);
        CountMinSketch {
            width,
            depth,
            row_seeds: (0..depth as u64).map(|r| splitmix64(seed ^ r)).collect(),
            counters: vec![0; width * depth],
        }
    }

    /// Creates a sketch sized for the classical `(ε, δ)` guarantee:
    /// with `width = ⌈e/ε⌉` and `depth = ⌈ln(1/δ)⌉`, any estimate
    /// exceeds the true count by more than `ε·N` (N = total
    /// observations) with probability at most `δ`.
    pub fn with_error(epsilon: f64, delta: f64, seed: u64) -> CountMinSketch {
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil() as usize;
        CountMinSketch::new(width, depth, seed)
    }

    fn slot(&self, row: usize, key: u64) -> usize {
        (splitmix64(key ^ self.row_seeds[row]) % self.width as u64) as usize
    }

    /// Records one occurrence of `key` (conservative update) and
    /// returns the new estimate.
    pub fn observe(&mut self, key: u64) -> u32 {
        let next = self.estimate(key).saturating_add(1);
        for row in 0..self.depth {
            let idx = row * self.width + self.slot(row, key);
            if self.counters[idx] < next {
                self.counters[idx] = next;
            }
        }
        next
    }

    /// The estimated occurrence count of `key`: an upper bound on the
    /// true count.
    pub fn estimate(&self, key: u64) -> u32 {
        (0..self.depth)
            .map(|row| self.counters[row * self.width + self.slot(row, key)])
            .min()
            .unwrap_or(0)
    }

    /// Resets every counter to zero.
    pub fn clear(&mut self) {
        self.counters.fill(0);
    }

    /// Whether every counter is zero.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
    }

    /// Counters per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Bytes pinned by the counter grid.
    pub fn bytes(&self) -> usize {
        self.counters.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn with_error_sizes_classically() {
        let s = CountMinSketch::with_error(0.01, 0.01, 1);
        assert_eq!(s.width(), 272); // ceil(e / 0.01)
        assert_eq!(s.depth(), 5); // ceil(ln 100)
        assert_eq!(s.bytes(), 272 * 5 * 4);
    }

    #[test]
    fn never_undercounts_under_heavy_collision() {
        // A deliberately tiny sketch: every key collides.
        let mut s = CountMinSketch::new(4, 2, 99);
        let mut exact: HashMap<u64, u32> = HashMap::new();
        for i in 0..200u64 {
            let key = i % 23;
            *exact.entry(key).or_default() += 1;
            s.observe(key);
        }
        for (key, count) in exact {
            assert!(s.estimate(key) >= count, "undercounted key {key}");
        }
    }

    #[test]
    fn conservative_update_is_exact_without_collisions() {
        let mut s = CountMinSketch::new(4096, 4, 7);
        for _ in 0..100 {
            s.observe(1);
        }
        for _ in 0..3 {
            s.observe(2);
        }
        assert_eq!(s.estimate(1), 100);
        assert_eq!(s.estimate(2), 3);
        assert_eq!(s.estimate(3), 0);
    }

    #[test]
    fn clear_resets() {
        let mut s = CountMinSketch::new(16, 2, 1);
        s.observe(9);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.estimate(9), 0);
    }
}
