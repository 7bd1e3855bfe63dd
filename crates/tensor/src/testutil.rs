//! Shared test helpers (also used by downstream crates' tests), and the
//! reference oracle of the attention kernels.
//!
//! The paper writes the dynamic view's causality (Eq. 9–10) and the cross
//! view's static↔dynamic restriction (Eq. 11–13) as additive `−∞` masks
//! over dense `n × n` score matrices. The library never uses a masked
//! score — its attention kernels are structural (see `kernels::attention`)
//! — but the dense masked pipeline is what they are proven bit-identical
//! to, so it lives here, like `matmul::naive` beside the tiled kernels,
//! except that nothing outside tests and benches calls it: [`AttnMask`]
//! ([`causal_mask`], [`cross_mask`]), the masked softmax row [`softmax_row_masked`] (and its tensor form
//! [`softmax_lastdim_masked`]), and the dense masked attention forward
//! [`attention_masked_into`] and backward [`attention_masked_backward_into`]
//! — the exact op sequence the autograd tape recorded for a masked view
//! before the structured nodes replaced it.

use crate::kernels::bmm::{bmm_nn_into, bmm_nt_into, bmm_tn_into};
use crate::kernels::softmax::softmax_backward_into;
use crate::{Shape, Tensor};

/// Asserts that two slices are elementwise within `tol` of each other.
///
/// # Panics
/// Panics (with the offending index and values) when any pair differs by more
/// than `tol`, or when lengths differ.
pub fn assert_close(actual: &[f32], expected: &[f32], tol: f32) {
    assert_eq!(
        actual.len(),
        expected.len(),
        "length mismatch: {} vs {}",
        actual.len(),
        expected.len()
    );
    for (i, (&a, &e)) in actual.iter().zip(expected).enumerate() {
        assert!((a - e).abs() <= tol, "element {i}: actual {a} vs expected {e} (tol {tol})");
    }
}

/// Deterministic pseudo-random tensor in `[-1, 1)` from a tiny splitmix64
/// generator — keeps this crate dependency-free (no `rand` here).
///
/// The `seed` is advanced in place so consecutive calls yield different data.
pub fn rand_tensor(shape: Shape, seed: &mut u64) -> Tensor {
    let n = shape.numel();
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(next_uniform(seed) * 2.0 - 1.0);
    }
    Tensor::from_vec(shape, data)
}

/// An additive attention mask over `[n, m]` score matrices, shared across
/// the batch dimension: `0.0` where an interaction is allowed,
/// `f32::NEG_INFINITY` where it is blocked — exactly as written in the
/// paper's Eq. (10) and Eq. (13). Built by [`causal_mask`] or [`cross_mask`].
#[derive(Clone, PartialEq)]
pub struct AttnMask {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// `[n, n]` mask blocking every `(i, j)` for which `blocked(i, j)`.
fn square_mask(n: usize, blocked: impl Fn(usize, usize) -> bool) -> AttnMask {
    let data = (0..n * n)
        .map(|at| if blocked(at / n, at % n) { f32::NEG_INFINITY } else { 0.0 })
        .collect();
    AttnMask { rows: n, cols: n, data }
}

/// Causal mask for the dynamic view: position `i` may attend to `j ≤ i`.
///
/// Paper Eq. (10): `m˙ᵢⱼ = 0 if i ≥ j, −∞ otherwise`.
pub fn causal_mask(n: usize) -> AttnMask {
    square_mask(n, |i, j| j > i)
}

/// Cross-view mask over the stacked `[n° + n˙]` features: only
/// static↔dynamic interactions are allowed.
///
/// Paper Eq. (13): `m*ᵢⱼ = 0 if i ≤ n° < j or j ≤ n° < i, −∞ otherwise`
/// (with 1-based indices in the paper; this constructor is 0-based).
pub fn cross_mask(n_static: usize, n_dynamic: usize) -> AttnMask {
    square_mask(n_static + n_dynamic, |i, j| (i < n_static) == (j < n_static))
}

impl AttnMask {
    /// Number of rows (query positions).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (key positions).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Additive mask entries, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Row `r`'s additive entries.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `true` if entry `(i, j)` is blocked.
    pub fn is_blocked(&self, i: usize, j: usize) -> bool {
        self.data[i * self.cols + j] == f32::NEG_INFINITY
    }
}

/// Stable softmax of one row under the additive `mask` row, in place: the
/// library's generic row loop with `x + m` in place of `x`. A row whose
/// entries are all blocked yields all zeros.
///
/// # Panics
/// Panics if `mask` is shorter than `x`.
pub fn softmax_row_masked(x: &mut [f32], mask: &[f32]) {
    let mask = &mask[..x.len()];
    let mut max = f32::NEG_INFINITY;
    for (&v, &m) in x.iter().zip(mask) {
        if v + m > max {
            max = v + m;
        }
    }
    if max == f32::NEG_INFINITY {
        x.fill(0.0);
        return;
    }
    let mut sum = 0.0f32;
    for (slot, &m) in x.iter_mut().zip(mask) {
        let v = *slot + m;
        let e = if v == f32::NEG_INFINITY { 0.0 } else { (v - max).exp() };
        *slot = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    for o in x.iter_mut() {
        *o *= inv;
    }
}

/// Masked softmax over the last dimension of a rank-2 `[n, m]` or rank-3
/// `[b, n, m]` tensor; the `[n, m]` mask is shared by every batch slice.
///
/// # Panics
/// Panics if the mask does not match the trailing dimensions of `x`.
pub fn softmax_lastdim_masked(x: &Tensor, mask: &AttnMask) -> Tensor {
    let s = x.shape();
    let n = if s.rank() == 3 { s.dim(1) } else { s.dim(0) };
    assert_eq!((mask.rows(), mask.cols()), (n, s.last_dim()), "mask does not match {s}");
    let mut out = x.clone();
    for (r, row) in out.data_mut().chunks_exact_mut(s.last_dim()).enumerate() {
        softmax_row_masked(row, mask.row(r % n));
    }
    out
}

/// Dense masked attention over `[bs, n, d]` slices — the tape's old
/// `bmm_nt → scale → softmax(+ M) → bmm`: all `n²` scores per slice, the
/// mask added to every one. `weights` (`≥ bs·n·n`) receives the softmax
/// weights and `out` (`≥ bs·n·d`) the context, both overwritten.
///
/// # Panics
/// Panics if a buffer is too small or the mask is not `[n, n]`.
pub fn attention_masked_into(
    [q, k, v]: [&[f32]; 3],
    mask: &AttnMask,
    scale: f32,
    [bs, n, d]: [usize; 3],
    weights: &mut [f32],
    out: &mut [f32],
) {
    assert_eq!((mask.rows(), mask.cols()), (n, n), "mask does not match n = {n}");
    let [q, k, v] = [q, k, v].map(|x| &x[..bs * n * d]);
    let (weights, out) = (&mut weights[..bs * n * n], &mut out[..bs * n * d]);
    weights.fill(0.0);
    bmm_nt_into(q, k, weights, bs, n, d, n);
    for s in weights.iter_mut() {
        *s *= scale;
    }
    for (r, row) in weights.chunks_exact_mut(n).enumerate() {
        softmax_row_masked(row, mask.row(r % n));
    }
    out.fill(0.0);
    bmm_nn_into(weights, v, out, bs, n, n, d);
}

/// Backward pass of [`attention_masked_into`] — the four dense tape nodes'
/// backward kernels in the tape's order: `dA = dO·Vᵀ`, `dV = Aᵀ·dO`,
/// `dS = softmax_backward(A, dA) · scale`, `dQ = dS·K`, `dK = dSᵀ·Q`.
/// `scratch` (`≥ 2·bs·n·n`) holds `dA` and `dS`; the gradients are
/// overwritten.
///
/// # Panics
/// Panics if a buffer is too small.
pub fn attention_masked_backward_into(
    [q, k, v]: [&[f32]; 3],
    weights: &[f32],
    d_out: &[f32],
    scale: f32,
    [bs, n, d]: [usize; 3],
    scratch: &mut [f32],
    [dq, dk, dv]: [&mut [f32]; 3],
) {
    let [q, k, v, d_out] = [q, k, v, d_out].map(|x| &x[..bs * n * d]);
    let weights = &weights[..bs * n * n];
    let [dq, dk, dv] = [dq, dk, dv].map(|g| &mut g[..bs * n * d]);
    let (d_attn, d_scores) = scratch[..2 * bs * n * n].split_at_mut(bs * n * n);
    d_attn.fill(0.0);
    bmm_nt_into(d_out, v, d_attn, bs, n, d, n);
    dv.fill(0.0);
    bmm_tn_into(weights, d_out, dv, bs, n, n, d);
    softmax_backward_into(weights, d_attn, d_scores, n);
    for s in d_scores.iter_mut() {
        *s *= scale;
    }
    dq.fill(0.0);
    bmm_nn_into(d_scores, k, dq, bs, n, n, d);
    dk.fill(0.0);
    bmm_tn_into(d_scores, q, dk, bs, n, n, d);
}

/// A counting global-allocator wrapper for zero-allocation assertions.
///
/// Counts every `alloc`/`alloc_zeroed`/`realloc` routed through the global
/// allocator (deallocations are free — returning memory is not
/// "allocating") and delegates verbatim to [`std::alloc::System`]. It is
/// inert unless a **binary** installs it:
///
/// ```ignore
/// use seqfm_tensor::testutil::CountingAlloc;
///
/// #[global_allocator]
/// static GLOBAL: CountingAlloc = CountingAlloc;
///
/// let before = CountingAlloc::allocations();
/// // ... hot path ...
/// assert_eq!(CountingAlloc::allocations() - before, 0);
/// ```
///
/// One definition shared by the core zero-allocation test and the kernels
/// bench, so the counting policy behind the published
/// `allocs_per_scored_request` number and the test's guarantee can never
/// drift apart.
pub struct CountingAlloc;

static ALLOCATIONS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl CountingAlloc {
    /// Total allocations counted so far in this process.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(std::sync::atomic::Ordering::SeqCst)
    }

    fn count() {
        ALLOCATIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation verbatim to `System`; the counter has
// no effect on the returned memory.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        Self::count();
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        Self::count();
        unsafe { std::alloc::System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        Self::count();
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

/// Next uniform sample in `[0, 1)` from a splitmix64 stream.
pub fn next_uniform(seed: &mut u64) -> f32 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // take the top 24 bits for a clean f32 mantissa
    ((z >> 40) as f32) / ((1u64 << 24) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rand_tensor_is_deterministic_and_bounded() {
        let mut s1 = 42;
        let mut s2 = 42;
        let a = rand_tensor(Shape::d2(4, 4), &mut s1);
        let b = rand_tensor(Shape::d2(4, 4), &mut s2);
        assert_eq!(a.data(), b.data());
        assert!(a.data().iter().all(|&v| (-1.0..1.0).contains(&v)));
        // stream advances
        let c = rand_tensor(Shape::d2(4, 4), &mut s1);
        assert_ne!(a.data(), c.data());
    }

    #[test]
    #[should_panic(expected = "element 1")]
    fn assert_close_reports_index() {
        assert_close(&[1.0, 2.0], &[1.0, 3.0], 0.5);
    }
}
