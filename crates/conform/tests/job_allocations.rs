//! A conformance job allocates only what it owns: one box per work
//! item and the memory image it returns.
//!
//! Each sweep worker keeps its memory system and its engine launch
//! state between jobs and resets them in place, work items keep small
//! register files inline, and jobs share their label and platform. A
//! job that rebuilt any of that, or a reset that re-allocated storage
//! of unchanged geometry, would show here as a few more allocations per
//! job. The count is this thread's own, so tests running beside this
//! one do not disturb it: with one worker the pool runs every job on
//! the calling thread.

use drfrlx_conform::{compile, conform_jobs, generate, table1_corpus, template_corpus};
use drfrlx_conform::{CompiledLitmus, ConformOptions};
use drfrlx_core::program::Program;
use hsim_gpu::Kernel;
use hsim_sys::{run_matrix_map, MatrixResilience, SimJob};
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

/// Fixed programs: the Table-1 corpus, the template corpus (barriers,
/// scratchpads, retry loops) and a few fuzz programs.
fn programs() -> Vec<(String, Program)> {
    let mut out = table1_corpus();
    out.extend(template_corpus());
    out.extend((0..4u64).map(|k| {
        let seed = (1 << 32) + k;
        (format!("fuzz {seed}"), generate(seed))
    }));
    out
}

/// Allocations of one `run_matrix_map` over `jobs` on one worker,
/// keeping each job's memory image.
fn sweep_allocations(jobs: &[SimJob]) -> u64 {
    let before = allocations();
    let out = run_matrix_map(jobs, 1, &MatrixResilience::default(), |r| r.memory);
    let n = allocations() - before;
    assert_eq!(out.completed().count(), jobs.len(), "every job completes");
    n
}

#[test]
fn a_conformance_job_allocates_its_work_items_and_its_image() {
    let opts = ConformOptions { threads: 1, ..ConformOptions::default() };
    let shapes: Vec<(String, CompiledLitmus, Vec<SimJob>)> = programs()
        .into_iter()
        .map(|(name, p)| {
            let shape = compile(&p);
            let jobs = conform_jobs(&shape, &opts);
            (name, shape, jobs)
        })
        .collect();
    // One warm-up pass sizes this thread's memory system and launch
    // state for the largest geometry among the programs.
    for (_, _, jobs) in &shapes {
        sweep_allocations(jobs);
    }
    for (name, shape, jobs) in &shapes {
        let contexts = (shape.blocks() * shape.threads_per_block()) as u64;
        let bound = jobs.len() as u64 * (contexts + 1) + 64;
        let got = sweep_allocations(jobs);
        assert!(
            got <= bound,
            "{name}: {} jobs of {contexts} contexts made {got} allocations ({:.2} per job), \
             more than the {bound} their work items and images need",
            jobs.len(),
            got as f64 / jobs.len() as f64
        );
    }
}
