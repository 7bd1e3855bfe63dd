//! Numerical kernels operating on [`crate::Tensor`] values.
//!
//! Kernels are free functions rather than methods so the autograd layer can
//! call them on both values and gradients without borrow gymnastics. Every
//! kernel allocates its output (there is no aliasing) except the explicitly
//! `_into` / `accumulate` variants used on hot paths.

pub mod attention;
pub mod bmm;
pub mod elementwise;
pub mod f16;
pub mod matmul;
pub mod reduce;
pub mod softmax;

/// Parallel-dispatch policy shared by the hot kernels.
///
/// A kernel fans out to the [`seqfm_parallel::global`] pool only when the
/// estimated scalar-op count clears [`PAR_THRESHOLD`], it has at least two
/// independent work units (rows / batch slices) to hand out, the configured
/// pool is wider than one worker, and the caller is not itself a pool task
/// (nested fan-out adds queueing without adding concurrency). Partitioning
/// is always by whole unit, and each unit's arithmetic is identical to the
/// serial kernel's — element order within a unit never changes — so
/// parallel results are **bit-for-bit** equal to serial ones.
pub(crate) mod dispatch {
    /// Minimum estimated scalar ops before fanning out. Chosen so the
    /// per-task overhead (~1–2 µs of queueing) stays well under 5% of the
    /// chunk's compute at typical serving/training shapes.
    pub(crate) const PAR_THRESHOLD: usize = 96 * 1024;

    /// `true` when a kernel with `work` scalar ops across `units`
    /// independent units should use the global pool.
    pub(crate) fn should_par(work: usize, units: usize) -> bool {
        units >= 2
            && work >= PAR_THRESHOLD
            && !seqfm_parallel::in_parallel_task()
            && seqfm_parallel::configured_workers() > 1
    }
}
