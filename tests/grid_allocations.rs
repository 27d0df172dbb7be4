//! Building a histogram grid kernel allocates little per grid thread.
//!
//! Each grid thread is emitted into its own one-thread program and
//! lowered at once. The emission allocates each location name once
//! (shared by the program's name table and its index), one box per
//! binary expression node, and the thread's instruction vector at its
//! final size; lowering allocates the thread's code. A template that
//! went back to a `format!` per location, an IR that boxed each operand
//! separately, or an intern that copied names would show here as
//! hundreds more allocations per thread. The count is this thread's
//! own, so tests running beside this one do not disturb it.

use drfrlx::workloads::micro::{Hist, HistGlobal, HistGlobalNonOrder, HistParams};
use drfrlx::OpClass;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting this thread's allocations and
/// reallocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`, so an allocation made while the thread is torn down
    // can never panic inside the allocator.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `Counting` upholds `GlobalAlloc`'s contract exactly as
// `System` does; counting touches only a thread-local integer and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` guarantees hold for `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per grid thread of building H over `h`, HG over `hg` and
/// HG-NO over `no`, each once.
fn per_thread(h: &HistParams, hg: &HistParams, no: &HistParams) -> [f64; 3] {
    fn measure(p: &HistParams, build: impl FnOnce(HistParams)) -> f64 {
        let owned = p.clone();
        let before = allocations();
        build(owned);
        (allocations() - before) as f64 / (p.blocks * p.tpb) as f64
    }
    [
        measure(h, |p| drop(Hist::new(p))),
        measure(hg, |p| drop(HistGlobal::new(p, OpClass::Commutative))),
        measure(no, |p| drop(HistGlobalNonOrder::new(p))),
    ]
}

fn assert_within(got: [f64; 3], bounds: [f64; 3]) {
    for ((name, got), bound) in ["H", "HG", "HG-NO"].into_iter().zip(got).zip(bounds) {
        assert!(
            got <= bound,
            "{name}: {got:.1} allocations per grid thread, more than the bound of {bound}"
        );
    }
}

/// A small shape, 4 blocks of 4 threads: H bins 8 values per thread
/// into 32 bins. These kernels build with 98, 33 and 22 allocations per
/// grid thread.
#[test]
fn small_histograms_build_within_their_allocation_bounds() {
    let p = HistParams { bins: 32, per_thread: 8, blocks: 4, tpb: 4, seed: 1 };
    assert_within(per_thread(&p, &p, &p), [115.0, 45.0, 30.0]);
}

/// The registry's shapes: H bins 256 values per thread, HG 64, and
/// HG-NO walks a 4096-bin table. These build with 1,054, 145 and 114
/// allocations per grid thread.
#[test]
#[ignore = "registry-size histograms; run explicitly in release"]
fn registry_histograms_build_within_their_allocation_bounds() {
    let hg = HistParams::default();
    let h = HistParams { per_thread: 256, ..hg.clone() };
    let no = HistParams { bins: 4096, ..hg.clone() };
    assert_within(per_thread(&h, &hg, &no), [1_200.0, 200.0, 150.0]);
}
