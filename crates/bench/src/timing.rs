//! The timer, host canary and CPU count the `BENCH_*.json` emitters
//! (`benches/`) share, so every record is timed and normalised the same way.

use std::time::Instant;

/// Median wall-clock seconds of `iters` timed runs of `f`, after `warm`
/// untimed warm-up runs.
pub fn p50(warm: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warm {
        f();
    }
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_unstable_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The 2 M-FMA host canary every `BENCH_*.json` carries, in microseconds:
/// one dependent scalar chain, so it follows the clock and little else.
/// Timed exactly as the repo benchmark's `bench.calib_spin_us` (median of 9
/// runs after one warm-up), so both read the same on one host. Absolute
/// numbers are comparable only between records whose canaries agree: a 2×
/// swing here means the host changed, not the code.
pub fn calib_spin_us() -> f64 {
    p50(1, 9, || {
        let mut acc = 0.0f32;
        let mut x = 1.000_000_1f32;
        for _ in 0..2_000_000u32 {
            acc = x.mul_add(1.000_000_1, acc);
            x = std::hint::black_box(x);
        }
        std::hint::black_box(acc);
    }) * 1e6
}

/// CPUs this process may run on; scaling numbers mean nothing without it.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
