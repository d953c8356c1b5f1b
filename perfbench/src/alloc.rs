//! A counting global allocator for the traced run.
//!
//! Each allocation is reported to [`hostprof::note_alloc`], which charges it
//! to the simulator phase active on the allocating thread. While the
//! profiler is off (every untraced run) the hook is one relaxed load and a
//! branch. Deallocations are not tracked: the per-layer `*.allocs` metrics
//! count requests, not live memory.

use std::alloc::{GlobalAlloc, Layout, System};

use morlog_sim_core::hostprof;

/// Forwards to the system allocator after reporting the request.
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note_alloc` only touches
// const-initialised thread-local cells and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        hostprof::note_alloc(layout.size());
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s requirements.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        hostprof::note_alloc(layout.size());
        // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s requirements.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        hostprof::note_alloc(new_size);
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
