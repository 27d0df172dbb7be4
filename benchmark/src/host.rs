//! Host speed, measured alongside the workload so that timings can be
//! reported at a reference speed.
//!
//! The benchmark was built on a 2-vCPU virtual machine whose speed moves
//! with the load of other tenants: by up to 2× for seconds at a time,
//! and by 15–30 % for minutes, so that whole runs land in a fast or a
//! slow spell. No estimator inside one run can remove a spell that
//! covers the run. A fixed piece of work that uses none of the
//! product's code, timed between passes on as many workers as an op
//! keeps busy, slows down with it: over 20-second windows, on two
//! workers its time correlated 0.92 with a two-worker simulator loop's
//! and dividing by it cut the spread between windows from 11 % to 6 %;
//! on one worker it correlated 0.90 with a checker loop's and cut the
//! spread from 8 % to 3 %.

use std::time::Instant;

/// [`sample`]'s time on the host the benchmark was built on: the
/// median over 80 runs. Timings are reported as if every run had this
/// speed.
pub const REFERENCE_S: f64 = 0.002_7;

/// Fixed integer work — hashing into a 32 KB array and sorting it —
/// that stays in the private caches and calls no product code.
fn work() {
    let mut x = 0x1234_5678_9ABC_DEF0u64;
    let mut v = vec![0u64; 4096];
    for round in 0..48 {
        for slot in v.iter_mut() {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *slot = z ^ (z >> 31) ^ round;
        }
        v.sort_unstable();
    }
    std::hint::black_box(&v);
}

/// Wall time of [`work`] run once on each of `threads` threads at once.
pub fn sample(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(work);
        }
        work();
    });
    t.elapsed().as_secs_f64()
}
