//! The seven microbenchmarks of Table 3, each stressing one
//! relaxed-atomic use case from §3. Inputs are scaled from the paper's
//! (256 KB → a few KB of values) to keep simulations fast; contention
//! ratios — the quantity that drives the trends — are preserved by
//! scaling bins and threads together.

mod counters;
mod flags;
mod hist;
mod seqlock;

pub use counters::{RefCounter, SplitCounter};
pub use flags::Flags;
pub use hist::{Hist, HistGlobal, HistGlobalNonOrder, HistParams};
pub use seqlock::Seqlocks;

/// Asserts that grid thread `(0, 0)` runs its own lowered body and
/// every other grid thread shares one second body, as the flags and
/// seqlock layouts replicate them.
#[cfg(test)]
fn assert_one_body_beside_thread_zero(k: &drfrlx_bridge::ProgramKernel) {
    use hsim_gpu::Kernel;
    use std::sync::Arc;
    let (first, rest) = (k.code(0, 0), k.code(0, 1));
    assert!(!Arc::ptr_eq(first, rest), "thread (0, 0) has a body of its own");
    for block in 0..k.blocks() {
        for thread in (0..k.threads_per_block()).filter(|&t| block + t > 0) {
            assert!(Arc::ptr_eq(rest, k.code(block, thread)), "({block}, {thread}) shares");
        }
    }
}
