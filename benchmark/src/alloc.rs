//! Counting wrapper around the system allocator.
//!
//! The bench binary installs [`CountingAlloc`] as its global allocator, so
//! `core.allocs_per_step` and `core.alloc_kb_per_step` count every heap
//! allocation the solver makes inside a timed region. The cost is two
//! relaxed atomic adds per allocation, always on (traced or not), so both
//! passes run the same allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// Relaxed: pure statistics, they publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

/// `System`, plus a count of allocations and of bytes requested.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract the caller already upholds; the counters are
// atomics touched before the call and never influence the returned memory.
// `alloc_zeroed` and `realloc` are forwarded too (not left to the default
// alloc+copy implementations) so the program keeps the system allocator's
// calloc/realloc fast paths and runs as it would without the wrapper.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout, same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout, same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and bytes requested since process start. Both stay 0 in a
/// binary that did not install [`CountingAlloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCounts {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocCounts {
    pub fn now() -> Self {
        AllocCounts {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// Counts accumulated since `earlier`.
    pub fn since(earlier: AllocCounts) -> Self {
        let now = Self::now();
        AllocCounts {
            allocs: now.allocs - earlier.allocs,
            bytes: now.bytes - earlier.bytes,
        }
    }
}
