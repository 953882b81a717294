//! A counting allocator for the traced process.
//!
//! The tracer binary installs [`CountingAlloc`] as its
//! `#[global_allocator]`; the per-layer `allocs` / `alloc_bytes` metrics
//! are differences of [`snapshot`] readings taken at span boundaries.
//! Processes that do not install it — the library's tests and every
//! untraced `streamlab` run — never touch the counters and read zeros.
//!
//! An allocation is every `alloc`, `alloc_zeroed` and `realloc` call; its
//! bytes are the size requested (the new size, for `realloc`). The replay
//! is single-threaded, so the counts repeat exactly run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Set while the tracer grows its own span storage, so that growth is not
/// charged to whichever layer happens to be open.
static PAUSED: AtomicBool = AtomicBool::new(false);

/// The system allocator plus two relaxed counters. The counters are
/// statistics only and publish no other data, so `Relaxed` suffices.
pub struct CountingAlloc;

#[inline]
fn count(bytes: usize) {
    if !PAUSED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only extra work is updating
// atomics, which neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` came from `System` via this allocator and
        // the caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes)` counted so far.
#[inline]
pub fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Run `f` without counting its allocations (the tracer's own
/// bookkeeping). Not reentrant; the replay is single-threaded.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    PAUSED.store(true, Ordering::Relaxed);
    let r = f();
    PAUSED.store(false, Ordering::Relaxed);
    r
}
