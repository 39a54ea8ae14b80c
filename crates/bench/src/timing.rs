//! A minimal wall-clock micro-benchmark harness.
//!
//! Replaces the external benchmarking framework (unavailable offline)
//! with the three features the component benches actually use: warmup,
//! repeated timed samples with a median report, and batched setup for
//! benchmarks whose state is consumed by the measured routine.
//!
//! Wall-clock timing is inherently nondeterministic, which is why this
//! module lives in `pabst-bench`, the one crate exempt from the
//! `simlint` determinism rules (see docs/LINTS.md): nothing here feeds
//! back into simulated behaviour.

use std::time::Instant;

/// Number of timed samples per benchmark; the median is reported.
const SAMPLES: usize = 9;

/// Runs one benchmark: `iters` calls of `f` per sample, `SAMPLES`
/// samples after one warmup sample, printing `name: <median ns/iter>`.
pub fn bench(name: &str, iters: u64, mut f: impl FnMut()) {
    let time_once = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_nanos() as u64
    };
    let _warmup = time_once(&mut f);
    let mut ns: Vec<u64> = (0..SAMPLES).map(|_| time_once(&mut f)).collect();
    ns.sort_unstable();
    let median = ns[ns.len() / 2] as f64 / iters as f64;
    println!("{name:<40} {median:>12.1} ns/iter  ({iters} iters x {SAMPLES} samples)");
}

/// Like [`bench()`], but rebuilds consumable state per sample: `setup`
/// produces a value, `f` consumes it while timed. One `f` call per
/// sample (for coarse, whole-run benchmarks like a full simulated
/// epoch).
pub fn bench_batched<T>(name: &str, mut setup: impl FnMut() -> T, mut f: impl FnMut(T)) {
    // Warmup.
    f(setup());
    let mut ns: Vec<u64> = (0..SAMPLES)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            f(input);
            start.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    let median = ns[ns.len() / 2] as f64;
    println!("{name:<40} {median:>12.1} ns/run   ({SAMPLES} samples)");
}
