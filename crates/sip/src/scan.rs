//! Word-at-a-time byte scanning primitives for the SIP hot path.
//!
//! The crate forbids `unsafe`, so these are SWAR (SIMD within a
//! register) routines over `u64` lanes built with `chunks_exact` +
//! `from_le_bytes` — the compiler lowers them to aligned vector loads
//! and the classic zero-byte trick, giving memchr-like throughput
//! without platform intrinsics. They back [`crate::parse`]'s
//! CRLF/terminator scanning and the UTF-8-validated slicing in
//! [`crate::bstr`].
//!
//! The zero-byte trick: for a word `w`, `(w - 0x0101..01) & !w &
//! 0x8080..80` has the high bit set in exactly the lanes that were
//! zero. XORing `w` with a broadcast of the target byte first turns
//! "find byte `b`" into "find zero".

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// Broadcasts a byte into all eight lanes of a word.
#[inline]
const fn broadcast(b: u8) -> u64 {
    LO * b as u64
}

/// A word with the high bit set in every lane equal to `b` (given
/// `x = w ^ broadcast(b)`), and clear elsewhere.
#[inline]
const fn zero_lanes(x: u64) -> u64 {
    x.wrapping_sub(LO) & !x & HI
}

/// Index of the first occurrence of `needle` in `haystack`, if any.
///
/// Equivalent to `haystack.iter().position(|&b| b == needle)`, scanning
/// eight bytes per step.
///
/// # Examples
///
/// ```
/// use scidive_sip::scan::memchr;
///
/// assert_eq!(memchr(b'\n', b"Call-ID: x\nVia: y"), Some(10));
/// assert_eq!(memchr(b'\n', b"no newline"), None);
/// ```
#[inline]
pub fn memchr(needle: u8, haystack: &[u8]) -> Option<usize> {
    let bcast = broadcast(needle);
    let mut chunks = haystack.chunks_exact(8);
    let mut offset = 0;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let hits = zero_lanes(word ^ bcast);
        if hits != 0 {
            return Some(offset + (hits.trailing_zeros() / 8) as usize);
        }
        offset += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|i| offset + i)
}

/// Index of the first `\r\n\r\n` in `haystack`, if any — the CRLF
/// header/body separator scan. Word-at-a-time over `\r` candidates:
/// almost every byte of a SIP header section is not `\r`, so the scan
/// runs at memchr speed and confirms the 4-byte window only at
/// candidates.
///
/// # Examples
///
/// ```
/// use scidive_sip::scan::find_crlf_crlf;
///
/// assert_eq!(find_crlf_crlf(b"a: b\r\n\r\nbody"), Some(4));
/// assert_eq!(find_crlf_crlf(b"a: b\r\n"), None);
/// ```
#[inline]
pub fn find_crlf_crlf(haystack: &[u8]) -> Option<usize> {
    find_seq(haystack, b'\r', b"\r\n\r\n")
}

/// Index of the first `\n\n` in `haystack`, if any — the bare-LF
/// fallback separator.
#[inline]
pub fn find_lf_lf(haystack: &[u8]) -> Option<usize> {
    find_seq(haystack, b'\n', b"\n\n")
}

/// Capacity of the caller-provided table [`memchr_all`] fills: enough
/// for every header section a VoIP endpoint emits (a line per entry,
/// and real messages stay under ~40 lines), while keeping the table a
/// small fixed stack buffer — it is zero-initialized per parse, so
/// oversizing it is a real per-message cost.
pub const HIT_CAP: usize = 48;

/// Positions of every occurrence of `needle` in `haystack`, collected
/// into `out` in one word-at-a-time pass. Returns the hit count, or
/// `None` when there are more than [`HIT_CAP`] occurrences — the caller
/// falls back to incremental scanning for such outliers.
///
/// One call replaces a per-line [`memchr`] cursor: the repeated calls
/// each pay loop setup and remainder handling on a ~40-byte line,
/// where a single pass over the header section amortizes both.
///
/// # Examples
///
/// ```
/// use scidive_sip::scan::{memchr_all, HIT_CAP};
///
/// let mut out = [0u32; HIT_CAP];
/// assert_eq!(memchr_all(b'\n', b"a\nbc\nd", &mut out), Some(2));
/// assert_eq!(&out[..2], &[1, 4]);
/// ```
#[inline]
pub fn memchr_all(needle: u8, haystack: &[u8], out: &mut [u32; HIT_CAP]) -> Option<usize> {
    let bcast = broadcast(needle);
    let mut n = 0usize;
    let mut chunks = haystack.chunks_exact(16);
    let mut offset = 0u32;
    for chunk in &mut chunks {
        let w0 = u64::from_le_bytes(chunk[..8].try_into().expect("8-byte half"));
        let w1 = u64::from_le_bytes(chunk[8..].try_into().expect("8-byte half"));
        let h0 = zero_lanes(w0 ^ bcast);
        let h1 = zero_lanes(w1 ^ bcast);
        if h0 | h1 != 0 {
            for (word_off, mut hits) in [(offset, h0), (offset + 8, h1)] {
                while hits != 0 {
                    if n == HIT_CAP {
                        return None;
                    }
                    out[n] = word_off + hits.trailing_zeros() / 8;
                    n += 1;
                    hits &= hits - 1;
                }
            }
        }
        offset += 16;
    }
    for (i, &b) in chunks.remainder().iter().enumerate() {
        if b == needle {
            if n == HIT_CAP {
                return None;
            }
            out[n] = offset + i as u32;
            n += 1;
        }
    }
    Some(n)
}

/// First occurrence of `needle` (which starts with `first`) in
/// `haystack`: one word-at-a-time pass over lead-byte candidates, each
/// confirmed with a slice compare. Every candidate lane in a word is
/// drained (`hits &= hits - 1` clears the lowest) before the scan
/// advances, so line endings — where lead bytes cluster — cost one
/// load, not a rescan per candidate.
#[inline]
fn find_seq(haystack: &[u8], first: u8, needle: &[u8]) -> Option<usize> {
    if haystack.len() < needle.len() {
        return None;
    }
    // Candidate starts past this index cannot fit the needle.
    let last = haystack.len() - needle.len();
    let bcast = broadcast(first);
    // 16 bytes per step: two words checked with one combined branch.
    // Header sections are hundreds of bytes of non-`\r`, so the no-hit
    // path dominates and halving its branch count is what matters.
    let mut chunks = haystack.chunks_exact(16);
    let mut offset = 0;
    for chunk in &mut chunks {
        let w0 = u64::from_le_bytes(chunk[..8].try_into().expect("8-byte half"));
        let w1 = u64::from_le_bytes(chunk[8..].try_into().expect("8-byte half"));
        let h0 = zero_lanes(w0 ^ bcast);
        let h1 = zero_lanes(w1 ^ bcast);
        if h0 | h1 != 0 {
            for (word_off, mut hits) in [(offset, h0), (offset + 8, h1)] {
                while hits != 0 {
                    let pos = word_off + (hits.trailing_zeros() / 8) as usize;
                    if pos > last {
                        return None;
                    }
                    if haystack[pos..pos + needle.len()] == *needle {
                        return Some(pos);
                    }
                    hits &= hits - 1;
                }
            }
        }
        offset += 16;
    }
    for (i, &b) in chunks.remainder().iter().enumerate() {
        let pos = offset + i;
        if pos > last {
            break;
        }
        if b == first && haystack[pos..pos + needle.len()] == *needle {
            return Some(pos);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random bytes (no `rand` dep here).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn memchr_matches_naive_on_noise() {
        for seed in 0..50 {
            for len in [0, 1, 7, 8, 9, 15, 16, 63, 200] {
                let hay = noise(len, seed * 1000 + len as u64);
                for needle in [0u8, b'\r', b'\n', b':', 0xff, hay.first().copied().unwrap_or(1)] {
                    assert_eq!(
                        memchr(needle, &hay),
                        hay.iter().position(|&b| b == needle),
                        "needle {needle:#x} in {hay:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn finds_each_position() {
        for pos in 0..40 {
            let mut hay = vec![b'x'; 48];
            hay[pos] = b'\n';
            assert_eq!(memchr(b'\n', &hay), Some(pos));
        }
    }

    #[test]
    fn crlf_crlf_positions() {
        let naive = |hay: &[u8]| hay.windows(4).position(|w| w == b"\r\n\r\n");
        for pos in 0..30 {
            let mut hay = vec![b'a'; 40];
            hay[pos..pos + 4].copy_from_slice(b"\r\n\r\n");
            assert_eq!(find_crlf_crlf(&hay), naive(&hay));
        }
        // Overlapping decoys: lone CRs, CRLF without the second pair.
        let tricky = b"\r\ra\r\nb\r\n\r\r\n\r\n\r\n";
        assert_eq!(find_crlf_crlf(tricky), naive(tricky));
        assert_eq!(find_crlf_crlf(b"\r\n\r"), None);
        assert_eq!(find_crlf_crlf(b""), None);
    }

    #[test]
    fn memchr_all_matches_naive() {
        let mut out = [0u32; HIT_CAP];
        for seed in 0..30 {
            for len in [0, 1, 15, 16, 17, 31, 200] {
                let hay = noise(len, seed * 7 + len as u64);
                let naive: Vec<u32> = hay
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b == b'\n')
                    .map(|(i, _)| i as u32)
                    .collect();
                if naive.len() > HIT_CAP {
                    assert_eq!(memchr_all(b'\n', &hay, &mut out), None);
                } else {
                    assert_eq!(memchr_all(b'\n', &hay, &mut out), Some(naive.len()));
                    assert_eq!(&out[..naive.len()], &naive[..]);
                }
            }
        }
        // Overflow: more hits than the table holds.
        let dense = vec![b'\n'; HIT_CAP + 1];
        assert_eq!(memchr_all(b'\n', &dense, &mut out), None);
        let exact = vec![b'\n'; HIT_CAP];
        assert_eq!(memchr_all(b'\n', &exact, &mut out), Some(HIT_CAP));
    }

    #[test]
    fn lf_lf_positions() {
        let naive = |hay: &[u8]| hay.windows(2).position(|w| w == b"\n\n");
        for hay in [&b"a\nb\n\nc"[..], b"\n\n", b"\n", b"", b"x\ny\nz"] {
            assert_eq!(find_lf_lf(hay), naive(hay));
        }
    }
}
