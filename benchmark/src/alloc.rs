//! Counting global allocator: live and peak heap bytes, allocation
//! count and allocated bytes, backing `heap_peak_mb` and
//! `engine.allocs_per_frame`.
//!
//! Live and peak bytes are process-wide atomics; they are statistics that
//! publish no other data, so every access is `Relaxed`. Allocation count
//! and allocated bytes are per thread: the passes that report them run on
//! the calling thread alone, and keeping them out of shared cache lines
//! is what makes the allocator free on the two-thread sharded path (three
//! more shared read-modify-writes per allocation cost `media_steady` a
//! tenth of its throughput). `main.rs` installs [`Counting`] with
//! `#[global_allocator]`; without that the readers below return zeros.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// Const-initialised and without destructors, so touching them from inside
// the allocator neither allocates nor registers a thread-exit hook.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator with counters in front.
pub struct Counting;

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    // The peak moves rarely once a pass is warm; a plain load keeps the
    // common case to one shared write.
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s contract is the caller's contract; the
// counters never influence which memory is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, and this
        // allocator only ever hands out `System` pointers.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` as for `dealloc`; `new_size` is the
        // caller's to get right.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Live heap bytes, all threads.
    pub live: usize,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: usize,
    /// Allocations made by the calling thread since it started.
    pub allocs: u64,
    /// Bytes allocated by the calling thread since it started.
    pub bytes: u64,
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
        allocs: ALLOCS.with(|c| c.get()),
        bytes: BYTES.with(|c| c.get()),
    }
}

/// Restarts peak tracking from the current live level and returns that
/// level: the baseline a pass measures its peak against.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}
