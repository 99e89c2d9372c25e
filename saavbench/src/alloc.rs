//! A counting wrapper around the system allocator (the pattern of
//! `tests/zero_alloc.rs`), which feeds `peak_heap_mb`.
//!
//! It counts the process's live heap bytes, and per thread the bytes that
//! thread allocated and has not freed. An operation's heap is the live
//! heap when it starts plus, for every thread, how far that thread's own
//! live bytes rose during the operation. That sum does not depend on how
//! two workers' jobs happen to overlap in time, which the process's peak
//! of live bytes does: two `overload` jobs whose storms peak together
//! read up to 1.65 MiB above the same jobs peaking apart. The sum is the
//! heap the operation needs when its threads peak at once, an upper bound
//! of the process peak. Unlike process RSS, none of this depends on how
//! many per-thread arenas glibc happened to open. The bookkeeping costs
//! the same on both sides of any comparison.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The benchmark binary's global allocator.
pub struct CountingAlloc;

/// Live heap bytes of the process.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The current span; a thread's first allocator call in a new span
/// restarts its rise from its live bytes at that moment.
static SPAN: AtomicU64 = AtomicU64::new(1);
/// The sum over threads of their rise in the current span.
static RISE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's (span last seen, live bytes, peak live bytes in that
    /// span). Live bytes are net of the frees this thread made, so memory
    /// freed by another thread than its allocator's shifts both threads'
    /// counts; only their rises within a span are used.
    static THREAD: Cell<(u64, isize, isize)> = const { Cell::new((0, 0, 0)) };
}

fn account(delta: isize) {
    if delta >= 0 {
        LIVE.fetch_add(delta as usize, Relaxed);
    } else {
        LIVE.fetch_sub(delta.unsigned_abs(), Relaxed);
    }
    let span = SPAN.load(Relaxed);
    // The cell has no destructor, so it is reachable for the whole life of
    // the thread; `try_with` only guards against that ever changing.
    let _ = THREAD.try_with(|t| {
        let (seen, live, mut peak) = t.get();
        if seen != span {
            peak = live;
        }
        let live = live + delta;
        if live > peak {
            RISE.fetch_add((live - peak) as usize, Relaxed);
            peak = live;
        }
        t.set((span, live, peak));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// updates atomics and a thread-local cell without a destructor, allocates
// nothing and never touches the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            account(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            account(layout.size() as isize);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            account(new_size as isize - layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        account(-(layout.size() as isize));
    }
}

/// The process's live heap bytes.
pub fn live_bytes() -> usize {
    LIVE.load(Relaxed)
}

/// One measured stretch of work: a set-up or an operation. Start it when
/// no other thread allocates.
pub struct HeapSpan {
    live_at_start: usize,
}

impl HeapSpan {
    /// Starts a span.
    pub fn start() -> HeapSpan {
        SPAN.fetch_add(1, Relaxed);
        RISE.store(0, Relaxed);
        HeapSpan {
            live_at_start: live_bytes(),
        }
    }

    /// The span's heap so far (bytes): the live heap at its start plus
    /// every thread's rise since.
    pub fn heap_bytes(&self) -> usize {
        self.live_at_start + RISE.load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::HeapSpan;

    /// Allocates and frees `bytes` on a thread of its own.
    fn peak_on_a_thread(bytes: usize) {
        std::thread::spawn(move || drop(std::hint::black_box(vec![1u8; bytes])))
            .join()
            .expect("the thread allocates and frees");
    }

    #[test]
    fn rises_of_threads_that_never_overlap_add_up() {
        const MIB: usize = 1 << 20;
        let span = HeapSpan::start();
        peak_on_a_thread(MIB);
        peak_on_a_thread(MIB);
        // Other tests allocate concurrently, which only adds to the rise.
        assert!(span.heap_bytes() - span.live_at_start >= 2 * MIB);
    }
}
