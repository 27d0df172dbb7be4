//! Wall-clock micro-timing for the `harness = false` benches.
//!
//! A deliberately small substitute for an external benchmark harness
//! so the workspace builds offline: warm up, then run timed batches
//! and report the per-iteration median, minimum and mean.
//!
//! End-to-end measurements of record come from the `benchmark/`
//! package (declared in `BENCHMARK.json`), which samples each workload
//! repeatedly and reports spreads; the committed `BENCH_*.json` files
//! are frozen history from the earlier single-sample recorder.

use std::time::{Duration, Instant};

/// How a [`bench`] run is sampled.
#[derive(Debug, Clone)]
pub struct TimingConfig {
    /// Wall-clock budget for the warm-up phase.
    pub warm_up: Duration,
    /// Number of timed batches.
    pub samples: usize,
    /// Minimum wall-clock per batch (iterations scale to reach it).
    pub batch_time: Duration,
}

impl Default for TimingConfig {
    fn default() -> TimingConfig {
        TimingConfig {
            warm_up: Duration::from_millis(100),
            samples: 10,
            batch_time: Duration::from_millis(50),
        }
    }
}

/// One benchmark's aggregated timing.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Benchmark label.
    pub name: String,
    /// Median per-iteration time.
    pub median: Duration,
    /// Fastest per-iteration time seen in any batch.
    pub min: Duration,
    /// Mean per-iteration time over all batches.
    pub mean: Duration,
    /// Total iterations executed (excluding warm-up).
    pub iterations: u64,
}

fn per_iter(total: Duration, iters: u64) -> Duration {
    Duration::from_nanos((total.as_nanos() / u128::from(iters.max(1))) as u64)
}

/// Time `f`, print one `name  median  (min .. mean, N iters)` line and
/// return the aggregate. The closure's return value is black-boxed via
/// a volatile-ish sink to keep the optimizer honest.
pub fn bench<T>(name: &str, config: &TimingConfig, mut f: impl FnMut() -> T) -> Timing {
    // Warm up and discover a batch size.
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < config.warm_up {
        sink(f());
        warm_iters += 1;
    }
    let est = warm_start.elapsed() / warm_iters.max(1) as u32;
    let batch: u64 =
        (config.batch_time.as_nanos() / est.as_nanos().max(1)).clamp(1, 1 << 20) as u64;

    let mut per_iter_samples = Vec::with_capacity(config.samples);
    let mut iterations = 0u64;
    for _ in 0..config.samples {
        let t0 = Instant::now();
        for _ in 0..batch {
            sink(f());
        }
        per_iter_samples.push(per_iter(t0.elapsed(), batch));
        iterations += batch;
    }
    per_iter_samples.sort();
    let median = per_iter_samples[per_iter_samples.len() / 2];
    let min = per_iter_samples[0];
    let mean = per_iter(per_iter_samples.iter().sum(), per_iter_samples.len() as u64);
    let t = Timing { name: name.to_string(), median, min, mean, iterations };
    println!(
        "{:40} {:>12?} /iter  (min {:?}, mean {:?}, {} iters)",
        t.name, t.median, t.min, t.mean, t.iterations
    );
    t
}

/// Consume a value without letting the optimizer delete the work that
/// produced it (a `black_box` substitute on stable without unsafe).
fn sink<T>(value: T) {
    std::hint::black_box(&value);
}
