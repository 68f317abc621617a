//! Word-at-a-time byte scanning primitives for the SIP hot path.
//!
//! The crate forbids `unsafe`, so these are SWAR (SIMD within a
//! register) routines over `u64` lanes built with `chunks_exact` +
//! `from_le_bytes` — the compiler lowers them to aligned vector loads
//! and the classic zero-byte trick, giving memchr-like throughput
//! without platform intrinsics. They back [`crate::parse`]'s
//! CRLF/terminator and line scanning, and the byte-level scanners
//! behind the SIP view (`trim_ws` is `str::trim` on any text; the field
//! and line splitters below mirror `str`'s on ASCII text).
//!
//! The zero-byte trick: for a word `w`, `(w - 0x0101..01) & !w &
//! 0x8080..80` has the high bit set in the lowest lane that was zero
//! (and may, through the borrow, flag lanes above it; `zero_lanes_exact`
//! is the variant without that). XORing `w` with a broadcast of the
//! target byte first turns "find byte `b`" into "find zero".

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// Broadcasts a byte into all eight lanes of a word.
#[inline]
const fn broadcast(b: u8) -> u64 {
    LO * b as u64
}

/// A word with the high bit set in every lane equal to `b` (given
/// `x = w ^ broadcast(b)`). The subtraction's borrow can also flag a
/// lane above a zero lane (a `0x01` lane of `x`), so only the lowest
/// flag is exact: [`memchr`] reads just that one, and `find_seq`
/// confirms every candidate. [`memchr_all`] needs every flag exact and
/// uses [`zero_lanes_exact`].
#[inline]
const fn zero_lanes(x: u64) -> u64 {
    x.wrapping_sub(LO) & !x & HI
}

/// A word with the high bit set in exactly the zero lanes of `x`: adding
/// `0x7F` to each lane's low seven bits cannot carry into the next lane.
#[inline]
const fn zero_lanes_exact(x: u64) -> u64 {
    !((x & !HI).wrapping_add(!HI) | x) & HI
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
        let h0 = zero_lanes_exact(w0 ^ bcast);
        let h1 = zero_lanes_exact(w1 ^ bcast);
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

/// Whether `b` is one of the six ASCII bytes `char::is_whitespace`
/// accepts: HT, LF, VT, FF, CR and space. `u8::is_ascii_whitespace`
/// and `<[u8]>::trim_ascii` leave out VT (`\x0B`), so a scanner built
/// on them would split and trim differently from `str::trim` and
/// `str::split_whitespace`.
#[inline]
pub(crate) fn is_space(b: u8) -> bool {
    matches!(b, b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r' | b' ')
}

/// Byte-level `str::trim`: strips [`is_space`] bytes with two byte
/// scans, deferring to the Unicode-aware `trim` only when a trimmed
/// boundary byte is `>= 0x80` (every multibyte whitespace char — NBSP,
/// NEL, the U+2000 block — both starts and ends with such a byte, so
/// the fallback triggers whenever Unicode whitespace could remain). The
/// stripped bytes are all ASCII, so `i` and `j` stay on `char`
/// boundaries. Equal to `str::trim` on any text.
#[inline]
pub(crate) fn trim_ws(s: &str) -> &str {
    let b = s.as_bytes();
    let mut i = 0;
    while i < b.len() && is_space(b[i]) {
        i += 1;
    }
    let mut j = b.len();
    while j > i && is_space(b[j - 1]) {
        j -= 1;
    }
    if i < j && (b[i] >= 0x80 || b[j - 1] >= 0x80) {
        return s[i..j].trim();
    }
    &s[i..j]
}

/// `str::split_whitespace` for ASCII text, one byte at a time: the
/// fields of `s` between runs of [`is_space`] bytes. On text with a
/// byte `>= 0x80` it may disagree (Unicode whitespace such as NBSP is
/// not split on), so callers check `is_ascii` first. Every cut is next
/// to an ASCII byte, so slicing never splits a `char`.
#[inline]
pub(crate) fn ascii_fields(s: &str) -> impl Iterator<Item = &str> {
    let b = s.as_bytes();
    let mut pos = 0;
    std::iter::from_fn(move || {
        while pos < b.len() && is_space(b[pos]) {
            pos += 1;
        }
        if pos == b.len() {
            return None;
        }
        let start = pos;
        while pos < b.len() && !is_space(b[pos]) {
            pos += 1;
        }
        Some(&s[start..pos])
    })
}

/// The lines of `s` split at LF, each located by [`memchr`]; a line
/// keeps any CR before its LF, and a final LF yields no empty line.
#[inline]
pub(crate) fn lf_lines(s: &str) -> impl Iterator<Item = &str> {
    let mut pos = 0;
    std::iter::from_fn(move || {
        if pos >= s.len() {
            return None;
        }
        let start = pos;
        let end = memchr(b'\n', &s.as_bytes()[start..]).map_or(s.len(), |i| start + i);
        pos = end + 1;
        Some(&s[start..end])
    })
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
        // A byte one above the needle right after it (`\n\x0B`) shares a
        // word with a hit at every alignment: it is not a hit.
        for pad in 0..24 {
            let mut hay = vec![b'x'; pad];
            hay.extend(b"\n\x0B\n\x0B\x0Bx");
            let naive: Vec<u32> = (0..hay.len() as u32)
                .filter(|&i| hay[i as usize] == b'\n')
                .collect();
            assert_eq!(
                memchr_all(b'\n', &hay, &mut out),
                Some(naive.len()),
                "pad {pad}"
            );
            assert_eq!(&out[..naive.len()], &naive[..], "pad {pad}");
        }
        // Overflow: more hits than the table holds.
        let dense = vec![b'\n'; HIT_CAP + 1];
        assert_eq!(memchr_all(b'\n', &dense, &mut out), None);
        let exact = vec![b'\n'; HIT_CAP];
        assert_eq!(memchr_all(b'\n', &exact, &mut out), Some(HIT_CAP));
    }

    #[test]
    fn trim_ws_matches_str_trim() {
        for s in [
            "",
            "   ",
            "x",
            "  spaced out  ",
            "\t\r\nmixed\x0B\x0C ",
            "\u{00A0}nbsp-led",
            "nbsp-trailed\u{00A0}",
            " \u{2003}em-space sandwich\u{2003} ",
            "inner \u{00A0} stays",
            "\u{85}",
        ] {
            assert_eq!(trim_ws(s), s.trim(), "diverged on {s:?}");
        }
    }

    #[test]
    fn lf_lf_positions() {
        let naive = |hay: &[u8]| hay.windows(2).position(|w| w == b"\n\n");
        for hay in [&b"a\nb\n\nc"[..], b"\n\n", b"\n", b"", b"x\ny\nz"] {
            assert_eq!(find_lf_lf(hay), naive(hay));
        }
    }
}
