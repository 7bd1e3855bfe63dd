//! Batched (rank-3) matrix multiplication.
//!
//! Self-attention operates on per-sample `[n, d]` matrices stacked into a
//! `[batch, n, d]` tensor; these kernels apply the 2-D kernels batch slice by
//! batch slice. As with the 2-D kernels, all three transpose flavours exist
//! because backward passes need them: for `C = bmm(A, B)`,
//! `dA = bmm_nt(dC, B)` and `dB = bmm_tn(A, dC)`.

use super::dispatch::should_par;
use super::matmul::{matmul_nn_into, matmul_nt_into, matmul_tn_into};
use crate::{Shape, Tensor};

/// Fans `bs` batch slices out over the global pool, calling
/// `f(slice_index, c_slice)` per slice, or runs the same loop serially
/// below the dispatch threshold. Per-slice arithmetic is untouched, so
/// parallel output is bit-identical to serial output.
fn for_each_slice(
    c: &mut [f32],
    bs: usize,
    slice_len: usize,
    work_per_slice: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    if should_par(bs * work_per_slice, bs) {
        seqfm_parallel::par_units(seqfm_parallel::global(), [c], [slice_len], |b0, [chunk]| {
            for (j, c_slice) in chunk.chunks_mut(slice_len).enumerate() {
                f(b0 + j, c_slice);
            }
        });
    } else {
        for (i, c_slice) in c.chunks_mut(slice_len).enumerate() {
            f(i, c_slice);
        }
    }
}

/// `C[b,m,n] = A[b,m,k] · B[b,k,n]` per batch slice.
///
/// # Panics
/// Panics if either operand is not rank 3, batch sizes differ, or inner
/// dimensions disagree.
pub fn bmm_nn(a: &Tensor, b: &Tensor) -> Tensor {
    let (bs, m, k) = dims3(a, "bmm_nn lhs");
    let (bs2, k2, n) = dims3(b, "bmm_nn rhs");
    assert_eq!(bs, bs2, "bmm_nn batch mismatch: {} vs {}", a.shape(), b.shape());
    assert_eq!(k, k2, "bmm_nn inner dim mismatch: {} vs {}", a.shape(), b.shape());
    let mut out = Tensor::zeros(Shape::d3(bs, m, n));
    bmm_nn_into(a.data(), b.data(), out.data_mut(), bs, m, k, n);
    out
}

/// `C[b,m,n] = A[b,m,k] · B[b,n,k]ᵀ` per batch slice (e.g. `Q·Kᵀ`).
///
/// # Panics
/// Panics if either operand is not rank 3, batch sizes differ, or inner
/// dimensions disagree.
pub fn bmm_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (bs, m, k) = dims3(a, "bmm_nt lhs");
    let (bs2, n, k2) = dims3(b, "bmm_nt rhs");
    assert_eq!(bs, bs2, "bmm_nt batch mismatch: {} vs {}", a.shape(), b.shape());
    assert_eq!(k, k2, "bmm_nt inner dim mismatch: {} vs {}", a.shape(), b.shape());
    let mut out = Tensor::zeros(Shape::d3(bs, m, n));
    bmm_nt_into(a.data(), b.data(), out.data_mut(), bs, m, k, n);
    out
}

/// `C[b,m,n] = A[b,k,m]ᵀ · B[b,k,n]` per batch slice.
///
/// # Panics
/// Panics if either operand is not rank 3, batch sizes differ, or inner
/// dimensions disagree.
pub fn bmm_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (bs, k, m) = dims3(a, "bmm_tn lhs");
    let (bs2, k2, n) = dims3(b, "bmm_tn rhs");
    assert_eq!(bs, bs2, "bmm_tn batch mismatch: {} vs {}", a.shape(), b.shape());
    assert_eq!(k, k2, "bmm_tn inner dim mismatch: {} vs {}", a.shape(), b.shape());
    let mut out = Tensor::zeros(Shape::d3(bs, m, n));
    bmm_tn_into(a.data(), b.data(), out.data_mut(), bs, m, k, n);
    out
}

/// Raw slice kernel: per-slice `c[i] += a[i]ᵀ · b[i]` over `bs` batch slices
/// (`a: [bs,k,m]`, `b: [bs,k,n]`, `c: [bs,m,n]`). Accumulates into `c` — the
/// backward pass's `dB = bmm_tn(A, dC)` writes straight into pooled gradient
/// buffers through this.
pub fn bmm_tn_into(a: &[f32], b: &[f32], c: &mut [f32], bs: usize, m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), bs * k * m);
    debug_assert_eq!(b.len(), bs * k * n);
    debug_assert_eq!(c.len(), bs * m * n);
    for_each_slice(c, bs, m * n, m * k * n, |i, c_slice| {
        matmul_tn_into(
            &a[i * k * m..(i + 1) * k * m],
            &b[i * k * n..(i + 1) * k * n],
            c_slice,
            m,
            k,
            n,
        );
    });
}

/// Raw slice kernel: per-slice `c[i] += a[i] · b[i]` over `bs` batch slices
/// (`a: [bs,m,k]`, `b: [bs,k,n]`, `c: [bs,m,n]`). Accumulates into `c`, so
/// zero it first when a plain product is wanted.
pub fn bmm_nn_into(a: &[f32], b: &[f32], c: &mut [f32], bs: usize, m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), bs * m * k);
    debug_assert_eq!(b.len(), bs * k * n);
    debug_assert_eq!(c.len(), bs * m * n);
    for_each_slice(c, bs, m * n, m * k * n, |i, c_slice| {
        matmul_nn_into(
            &a[i * m * k..(i + 1) * m * k],
            &b[i * k * n..(i + 1) * k * n],
            c_slice,
            m,
            k,
            n,
        );
    });
}

/// Raw slice kernel: per-slice `c[i] += a[i] · b[i]ᵀ` over `bs` batch slices
/// (`a: [bs,m,k]`, `b: [bs,n,k]`, `c: [bs,m,n]`). Accumulates into `c`.
pub fn bmm_nt_into(a: &[f32], b: &[f32], c: &mut [f32], bs: usize, m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), bs * m * k);
    debug_assert_eq!(b.len(), bs * n * k);
    debug_assert_eq!(c.len(), bs * m * n);
    for_each_slice(c, bs, m * n, m * k * n, |i, c_slice| {
        matmul_nt_into(
            &a[i * m * k..(i + 1) * m * k],
            &b[i * n * k..(i + 1) * n * k],
            c_slice,
            m,
            k,
            n,
        );
    });
}

fn dims3(t: &Tensor, what: &str) -> (usize, usize, usize) {
    assert_eq!(t.shape().rank(), 3, "{what} must be rank 3, got {}", t.shape());
    (t.shape().dim(0), t.shape().dim(1), t.shape().dim(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::matmul::{matmul_nn, matmul_nt, matmul_tn};
    use crate::testutil::{assert_close, rand_tensor};

    #[test]
    fn bmm_matches_per_slice_matmul() {
        let mut seed = 7;
        let a = rand_tensor(Shape::d3(3, 4, 5), &mut seed);
        let b = rand_tensor(Shape::d3(3, 5, 2), &mut seed);
        let c = bmm_nn(&a, &b);
        for i in 0..3 {
            let ai = Tensor::from_vec(Shape::d2(4, 5), a.data()[i * 20..(i + 1) * 20].to_vec());
            let bi = Tensor::from_vec(Shape::d2(5, 2), b.data()[i * 10..(i + 1) * 10].to_vec());
            let ci = matmul_nn(&ai, &bi);
            assert_close(&c.data()[i * 8..(i + 1) * 8], ci.data(), 1e-5);
        }
    }

    #[test]
    fn bmm_nt_matches_per_slice() {
        let mut seed = 11;
        let a = rand_tensor(Shape::d3(2, 3, 4), &mut seed);
        let b = rand_tensor(Shape::d3(2, 5, 4), &mut seed);
        let c = bmm_nt(&a, &b);
        assert_eq!(c.shape(), Shape::d3(2, 3, 5));
        for i in 0..2 {
            let ai = Tensor::from_vec(Shape::d2(3, 4), a.data()[i * 12..(i + 1) * 12].to_vec());
            let bi = Tensor::from_vec(Shape::d2(5, 4), b.data()[i * 20..(i + 1) * 20].to_vec());
            let ci = matmul_nt(&ai, &bi);
            assert_close(&c.data()[i * 15..(i + 1) * 15], ci.data(), 1e-5);
        }
    }

    #[test]
    fn bmm_tn_matches_per_slice() {
        let mut seed = 13;
        let a = rand_tensor(Shape::d3(2, 4, 3), &mut seed);
        let b = rand_tensor(Shape::d3(2, 4, 5), &mut seed);
        let c = bmm_tn(&a, &b);
        assert_eq!(c.shape(), Shape::d3(2, 3, 5));
        for i in 0..2 {
            let ai = Tensor::from_vec(Shape::d2(4, 3), a.data()[i * 12..(i + 1) * 12].to_vec());
            let bi = Tensor::from_vec(Shape::d2(4, 5), b.data()[i * 20..(i + 1) * 20].to_vec());
            let ci = matmul_tn(&ai, &bi);
            assert_close(&c.data()[i * 15..(i + 1) * 15], ci.data(), 1e-5);
        }
    }

    #[test]
    fn into_variants_match_allocating_kernels() {
        let mut seed = 17;
        let a = rand_tensor(Shape::d3(2, 3, 4), &mut seed);
        let b = rand_tensor(Shape::d3(2, 4, 5), &mut seed);
        let expect = bmm_nn(&a, &b);
        let mut c = vec![0.0f32; 2 * 3 * 5];
        bmm_nn_into(a.data(), b.data(), &mut c, 2, 3, 4, 5);
        assert_eq!(c, expect.data());
        let bt = rand_tensor(Shape::d3(2, 5, 4), &mut seed);
        let expect_nt = bmm_nt(&a, &bt);
        c.fill(0.0);
        bmm_nt_into(a.data(), bt.data(), &mut c, 2, 3, 4, 5);
        assert_eq!(c, expect_nt.data());
    }

    #[test]
    #[should_panic(expected = "batch mismatch")]
    fn bmm_rejects_batch_mismatch() {
        let a = Tensor::zeros(Shape::d3(2, 3, 4));
        let b = Tensor::zeros(Shape::d3(3, 4, 5));
        let _ = bmm_nn(&a, &b);
    }
}
