//! A counting global allocator, switched on only for the traced pass.
//!
//! With counting off an allocation costs one relaxed flag load on top of
//! the system allocator, so the untraced end-to-end numbers are not
//! perturbed by it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

// Relaxed everywhere: each is a statistic that publishes no other data.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Net bytes allocated since counting was switched on. Memory obtained
/// before that and released during it drives this below zero, so it is
/// signed.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE: AtomicI64 = AtomicI64::new(0);

pub struct Counting;

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and never allocate, so there is no re-entrancy.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size, which
        // is all `System.alloc` requires.
        let p = unsafe { System.alloc(layout) };
        if ON.load(Ordering::Relaxed) && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if ON.load(Ordering::Relaxed) && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`; every block this allocator hands out came from
        // `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`, and that `new_size` is
        // non-zero and does not overflow when rounded up to the
        // alignment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if ON.load(Ordering::Relaxed) && !p.is_null() {
            // Counted as releasing the old block and obtaining the new.
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

/// What was allocated while counting was on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub allocs: u64,
    pub bytes: u64,
    /// Highest net growth of the heap since counting was switched on.
    pub peak_live_bytes: u64,
}

/// Zero the counters and start counting.
pub fn start() {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK_LIVE.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
}

/// Stop counting and read the counters.
pub fn stop() -> Counts {
    ON.store(false, Ordering::Relaxed);
    Counts {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        peak_live_bytes: PEAK_LIVE.load(Ordering::Relaxed).max(0) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_between_start_and_stop() {
        // Other tests allocate and free concurrently, so the counts are
        // lower bounds while counting is on (and the net-growth peak is
        // not asserted at all), and must freeze once it is off.
        start();
        let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(1 << 20));
        let during = stop();
        assert!(during.allocs >= 1);
        assert!(during.bytes >= 1 << 20);
        drop(v);
        let w: Vec<u8> = std::hint::black_box(Vec::with_capacity(1 << 20));
        drop(w);
        assert_eq!(ALLOCS.load(Ordering::Relaxed), during.allocs);
    }
}
