//! Minimal wall-clock micro-benchmark harness.
//!
//! The bench targets keep `harness = false` and drive this module directly
//! (the registry-hosted `criterion` crate is unavailable in this offline
//! build environment). Each measurement runs one untimed warm-up call, then
//! times `iters` calls and reports the mean — enough for the order-of-
//! magnitude comparisons the experiment binaries need.

use std::hint::black_box;
use std::time::Instant;

/// Time `iters` calls of `f` (after one warm-up call), print one report
/// line, and return the mean seconds per call.
pub fn bench_n<T>(name: &str, iters: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(iters > 0, "bench_n needs at least one iteration");
    black_box(f()); // warm-up: first-touch allocations, caches
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per = start.elapsed().as_secs_f64() / iters as f64;
    println!("{name:<52} {:>12}/iter   ({iters} iters)", fmt_secs(per));
    per
}

/// Render a duration in the most readable unit.
fn fmt_secs(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_n_returns_positive_mean() {
        let mut calls = 0usize;
        let per = bench_n("noop", 3, || {
            calls += 1;
            calls
        });
        assert!(per >= 0.0);
        assert_eq!(calls, 4, "one warm-up plus three timed calls");
    }

    #[test]
    fn fmt_secs_picks_units() {
        assert!(fmt_secs(5e-9).ends_with("ns"));
        assert!(fmt_secs(5e-5).ends_with("µs"));
        assert!(fmt_secs(5e-2).ends_with("ms"));
        assert!(fmt_secs(2.0).ends_with('s'));
    }
}
