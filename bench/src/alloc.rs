//! Counting global allocator: calls, bytes requested and bytes still live.
//!
//! It is installed in every run, timed and traced alike, so the two stay
//! comparable.  The benchmark is single-threaded by construction, so the
//! counters are bumped with a relaxed load + store rather than a locked
//! read-modify-write: that costs about a nanosecond per allocation instead of
//! several, and is exact as long as one thread allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Relaxed).wrapping_add(by), Relaxed);
}

/// Forwards to the system allocator and counts.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&CALLS, 1);
        bump(&BYTES, layout.size() as u64);
        bump(&LIVE, layout.size() as u64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&CALLS, 1);
        bump(&BYTES, layout.size() as u64);
        bump(&LIVE, layout.size() as u64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&LIVE, (layout.size() as u64).wrapping_neg());
        // SAFETY: `ptr` was returned by this allocator (that is, by `System`)
        // for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&CALLS, 1);
        bump(&BYTES, new_size as u64);
        bump(&LIVE, (new_size as u64).wrapping_sub(layout.size() as u64));
        // SAFETY: `ptr`/`layout` describe a live block of this allocator and
        // `new_size` is valid for the layout's alignment, per the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Pins glibc malloc's adaptive behaviour, first thing in `main`.
///
/// Left alone, glibc moves its mmap threshold up as large blocks are freed,
/// trims the heap top back to the kernel and regrows it in small steps, so
/// whether a 256 KiB buffer costs page faults depends on the order of earlier
/// frees: the same `bulk_ktls` code ran at 200, 750 or 850 op/s under
/// different settings, and at either of the last two from run to run under
/// the default.  With the mmap threshold at its maximum (32 MiB), trimming
/// off and the heap grown 64 MiB at a time, every buffer comes from the heap
/// and stays there; what is timed is the code, not the kernel zeroing pages.
/// The same settings apply to every commit measured, and the high-water mark
/// of resident memory counts touched pages only, so it is unaffected.
pub fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_TOP_PAD: i32 = -2;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` is glibc's own tuning call; it takes two plain
        // integers, touches only allocator parameters, and is called before
        // the process has a second thread.  An unsupported value is refused
        // (returns 0) and changes nothing.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_TOP_PAD, 64 << 20);
        }
    }
}

/// A reading of the three counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes allocated and not yet freed.
    pub live: u64,
}

/// Reads the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
    }
}
