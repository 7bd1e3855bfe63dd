//! Numerically-stable softmax over the last dimension.
//!
//! This is the attention-weight primitive of SeqFM's three views. None of
//! them applies a mask here any more: the paper writes the dynamic view's
//! causality (Eq. 9–10) and the cross view's static↔dynamic restriction
//! (Eq. 11–13) as additive `−∞` masks, but a blocked score contributes an
//! exact `+0.0` to its row's sum and an exact `0.0` weight, so the attention
//! kernels (`kernels::attention`) never form one — a causal row softmaxes
//! over its `i + 1` live columns, a cross-view row over the other side's.
//! The static view (Eq. 8) is plain softmax over full rows. The additive
//! masks survive only in the tests' reference oracle
//! (`testutil::causal_mask`, `testutil::cross_mask`).

use crate::Tensor;

/// Softmax over the last dimension of a rank-2 or rank-3 tensor.
///
/// # Panics
/// Panics if `x` is not rank 2 or 3.
pub fn softmax_lastdim(x: &Tensor) -> Tensor {
    let s = x.shape();
    assert!(matches!(s.rank(), 2 | 3), "softmax expects rank 2 or 3, got rank {} ({s})", s.rank());
    let mut out = Tensor::zeros(s);
    softmax_rows_into(x.data(), s.last_dim(), out.data_mut());
    out
}

/// Stable softmax of a single row, in place — the one home of the row
/// arithmetic (the out-of-place [`softmax_row`] copies, then calls this). A
/// row whose entries are all `−∞` (or NaN) yields all zeros.
///
/// A row of two finite entries — every history row of the cross view at
/// `n° = 2`, every row of the static view there, row 1 of a causal block —
/// takes one `exp` instead of two: the generic loop's term for the row
/// maximum is `exp(hi − hi) = exp(+0.0)`, which is exactly `1.0` (pinned in
/// the tests), so only `e = exp(lo − hi)` is computed and `(1, e)` /
/// `(e, 1)` placed by a select; the sum `(0 + e₀) + e₁` and the `· 1/sum`
/// are the generic expressions. Same bits, half the `exp` calls; a
/// non-finite entry (whose `hi − hi` is NaN, or which the `−∞` rules cover)
/// takes the generic loop.
pub(crate) fn softmax_row_inplace(x: &mut [f32]) {
    if let [x0, x1] = x {
        if x0.is_finite() && x1.is_finite() {
            // Strict `>` in column order, as the generic max scan: a tie
            // (incl. `+0.0` vs `-0.0`) keeps column 0 as the maximum.
            let hi_is_1 = *x1 > *x0;
            let e = (if hi_is_1 { *x0 - *x1 } else { *x1 - *x0 }).exp();
            let (e0, e1) = if hi_is_1 { (e, 1.0) } else { (1.0, e) };
            let inv = 1.0 / ((0.0f32 + e0) + e1);
            *x0 = e0 * inv;
            *x1 = e1 * inv;
            return;
        }
    }
    let mut max = f32::NEG_INFINITY;
    for &v in x.iter() {
        if v > max {
            max = v;
        }
    }
    if max == f32::NEG_INFINITY {
        x.fill(0.0);
        return;
    }
    let mut sum = 0.0f32;
    for slot in x.iter_mut() {
        let v = *slot;
        let e = if v == f32::NEG_INFINITY { 0.0 } else { (v - max).exp() };
        *slot = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    for o in x.iter_mut() {
        *o *= inv;
    }
}

/// Out-of-place [`softmax_row_inplace`]: copy, then the one row body.
fn softmax_row(x: &[f32], out: &mut [f32]) {
    out.copy_from_slice(x);
    softmax_row_inplace(out);
}

/// Out-buffer variant of [`softmax_lastdim`] operating on raw slices — the
/// hot path, where the caller owns a reusable buffer and wants zero
/// allocations. `x` holds rows of width `m`.
///
/// # Panics
/// Panics if lengths disagree or `x` is not a whole number of rows.
pub fn softmax_rows_into(x: &[f32], m: usize, out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "softmax_rows_into length mismatch");
    assert_eq!(x.len() % m, 0, "softmax_rows_into: input not a multiple of row width {m}");
    let rows = x.len().checked_div(m).unwrap_or(0);
    // exp dominates a softmax row — weight the op estimate accordingly so
    // modest score matrices still clear the fan-out threshold.
    if super::dispatch::should_par(x.len() * 16, rows) {
        seqfm_parallel::par_units(seqfm_parallel::global(), [out], [m], |r0, [out_rows]| {
            softmax_rows(&x[r0 * m..r0 * m + out_rows.len()], m, out_rows)
        });
    } else {
        softmax_rows(x, m, out);
    }
}

/// Softmaxes a contiguous block of rows of width `m`.
fn softmax_rows(x: &[f32], m: usize, out: &mut [f32]) {
    for (row_in, row_out) in x.chunks_exact(m).zip(out.chunks_exact_mut(m)) {
        softmax_row(row_in, row_out);
    }
}

/// Backward pass of [`softmax_lastdim`]: given the softmax output `y` and
/// upstream gradient `dy`, returns `dx = y ⊙ (dy − Σⱼ dyⱼ·yⱼ)` per row.
///
/// # Panics
/// Panics if `y` and `dy` shapes differ.
pub fn softmax_backward_lastdim(y: &Tensor, dy: &Tensor) -> Tensor {
    assert!(
        y.shape().same(&dy.shape()),
        "softmax backward shape mismatch: {} vs {}",
        y.shape(),
        dy.shape()
    );
    let mut out = Tensor::zeros(y.shape());
    softmax_backward_into(y.data(), dy.data(), out.data_mut(), y.shape().last_dim());
    out
}

/// Raw slice kernel of [`softmax_backward_lastdim`]: rows of width `m`.
/// Overwrites `out` — the autograd tape feeds it pooled gradient buffers.
pub fn softmax_backward_into(y: &[f32], dy: &[f32], out: &mut [f32], m: usize) {
    debug_assert_eq!(y.len(), dy.len());
    debug_assert_eq!(y.len(), out.len());
    for ((yr, dyr), or) in y.chunks_exact(m).zip(dy.chunks_exact(m)).zip(out.chunks_exact_mut(m)) {
        let dot: f32 = yr.iter().zip(dyr).map(|(&a, &b)| a * b).sum();
        for ((&yv, &dyv), o) in yr.iter().zip(dyr).zip(or.iter_mut()) {
            *o = yv * (dyv - dot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{
        assert_close, causal_mask, cross_mask, softmax_lastdim_masked, softmax_row_masked,
    };
    use crate::Shape;

    #[test]
    fn rows_sum_to_one() {
        let x = Tensor::from_vec(Shape::d2(2, 3), vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let y = softmax_lastdim(&x);
        for r in 0..2 {
            let s: f32 = y.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
    }

    #[test]
    fn hand_checked_values() {
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![0.0, (2.0f32).ln()]);
        let y = softmax_lastdim(&x);
        assert_close(y.data(), &[1.0 / 3.0, 2.0 / 3.0], 1e-5);
    }

    #[test]
    fn shift_invariance() {
        let x = Tensor::from_vec(Shape::d2(1, 4), vec![0.1, 1.5, -2.0, 0.7]);
        let xs = x.map(|v| v + 1000.0);
        assert_close(softmax_lastdim(&x).data(), softmax_lastdim(&xs).data(), 1e-5);
    }

    #[test]
    fn extreme_logits_are_finite() {
        let x = Tensor::from_vec(Shape::d2(1, 3), vec![1e4, -1e4, 0.0]);
        let y = softmax_lastdim(&x);
        assert!(!y.has_non_finite());
        assert!((y.data()[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn causal_mask_blocks_future() {
        let m = causal_mask(3);
        assert!(!m.is_blocked(0, 0));
        assert!(m.is_blocked(0, 1));
        assert!(m.is_blocked(0, 2));
        assert!(m.is_blocked(1, 2));
        assert!(!m.is_blocked(2, 0));
        let x = Tensor::from_vec(Shape::d2(3, 3), vec![5.0; 9]);
        let y = softmax_lastdim_masked(&x, &m);
        // Row 0 can only see position 0.
        assert_close(y.row(0), &[1.0, 0.0, 0.0], 1e-6);
        // Row 1 splits evenly over positions 0,1.
        assert_close(y.row(1), &[0.5, 0.5, 0.0], 1e-6);
        // Row 2 splits evenly over all three.
        assert_close(y.row(2), &[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0], 1e-5);
    }

    #[test]
    fn cross_mask_blocks_same_category() {
        let m = cross_mask(2, 3);
        // static rows (0,1) may only attend to dynamic cols (2,3,4)
        for i in 0..2 {
            for j in 0..2 {
                assert!(m.is_blocked(i, j), "static-static ({i},{j}) should be blocked");
            }
            for j in 2..5 {
                assert!(!m.is_blocked(i, j), "static-dynamic ({i},{j}) should be open");
            }
        }
        // dynamic rows (2..5) may only attend to static cols (0,1)
        for i in 2..5 {
            for j in 0..2 {
                assert!(!m.is_blocked(i, j));
            }
            for j in 2..5 {
                assert!(m.is_blocked(i, j), "dynamic-dynamic ({i},{j}) should be blocked");
            }
        }
    }

    #[test]
    fn fully_masked_row_yields_zeros() {
        // Every entry blocked: the oracle's masked row, and the library row
        // on the `−∞` scores such a row holds, both give zeros, not NaN.
        let mut x = [1.0f32, 2.0];
        softmax_row_masked(&mut x, &[f32::NEG_INFINITY; 2]);
        assert_eq!(x, [0.0, 0.0]);
        let mut x = [f32::NEG_INFINITY; 3];
        softmax_row_inplace(&mut x);
        assert_eq!(x, [0.0; 3]);
    }

    #[test]
    fn rank3_shares_mask_across_batch() {
        let m = causal_mask(2);
        let x = Tensor::from_vec(Shape::d3(2, 2, 2), vec![1.0; 8]);
        let y = softmax_lastdim_masked(&x, &m);
        for b in 0..2 {
            assert!((y.at3(b, 0, 0) - 1.0).abs() < 1e-6);
            assert!((y.at3(b, 0, 1)).abs() < 1e-6);
            assert!((y.at3(b, 1, 0) - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn inplace_row_matches_out_of_place_bitwise() {
        // The in-place row is the out-of-place one; and a causal row under
        // the oracle's additive mask is the in-place softmax of its live
        // prefix followed by exact zeros — the identity the structured
        // causal kernels rest on.
        let mask_full = causal_mask(4);
        for r in 0..4 {
            let x = [0.3f32, -1.7, 2.5, 0.01];
            let mut expect = [0.0f32; 4];
            softmax_row(&x, &mut expect);
            let mut inplace = x;
            softmax_row_inplace(&mut inplace);
            assert_eq!(inplace, expect, "row {r} diverges");

            let mut masked = x;
            softmax_row_masked(&mut masked, mask_full.row(r));
            let mut prefix = x;
            softmax_row_inplace(&mut prefix[..=r]);
            prefix[r + 1..].fill(0.0);
            assert_eq!(masked.map(f32::to_bits), prefix.map(f32::to_bits), "causal row {r}");
        }
    }

    #[test]
    fn exp_of_zero_is_exactly_one() {
        // The two-column path of `softmax_row_inplace` writes `1.0` where
        // the generic loop computes `exp(hi − hi)`; it is the same bits only
        // while libm's `expf(±0.0)` is exactly `1.0`.
        assert_eq!(0.0f32.exp().to_bits(), 1.0f32.to_bits());
        assert_eq!((-0.0f32).exp().to_bits(), 1.0f32.to_bits());
    }

    #[test]
    fn two_column_path_matches_the_generic_loop_bitwise() {
        // An all-open mask row sends the same pair through the generic loop
        // (the oracle's masked row adds `0.0` to every entry).
        let check = |pair: [f32; 2]| {
            let (mut fast, mut generic) = (pair, pair);
            softmax_row_inplace(&mut fast);
            softmax_row_masked(&mut generic, &[0.0, 0.0]);
            assert_eq!(fast.map(f32::to_bits), generic.map(f32::to_bits), "{pair:?}");
        };
        let sub = f32::MIN_POSITIVE / 4.0; // subnormal
        let edges = [
            0.0,
            -0.0,
            1.5,
            -1.5,
            sub,
            -sub,
            f32::MIN_POSITIVE,
            88.0,
            -104.0, // exp underflows to a subnormal / zero against 0.0
            f32::MAX,
            f32::MIN, // MIN − MAX overflows to −∞ → weight exactly 0
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for &a in &edges {
            for &b in &edges {
                check([a, b]);
                // Three columns take the generic loop on both sides: the
                // library's reads `x` where the oracle's reads `x + 0.0`,
                // which differ only in a zero's sign — invisible after
                // `x − max` and `exp`. (NaN payloads are not pinned: the
                // compiler may commute an add of two NaNs.)
                for &c in &edges {
                    let (mut lib, mut oracle) = ([a, b, c], [a, b, c]);
                    softmax_row_inplace(&mut lib);
                    softmax_row_masked(&mut oracle, &[0.0; 3]);
                    let same = |(x, y): (&f32, &f32)| {
                        x.to_bits() == y.to_bits() || x.is_nan() && y.is_nan()
                    };
                    assert!(
                        lib.iter().zip(&oracle).all(same),
                        "{:?}: {lib:?} vs {oracle:?}",
                        [a, b, c]
                    );
                }
            }
        }
        let mut seed = 0x5EED_u64;
        let mut draw = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 40.0
        };
        for _ in 0..20_000 {
            check([draw(), draw()]);
        }
    }

    #[test]
    fn rows_into_matches_tensor_variant() {
        let x =
            Tensor::from_vec(Shape::d3(2, 2, 2), vec![0.3, -1.0, 2.0, 0.1, 5.0, 4.0, -2.0, 0.0]);
        let mut out = vec![0.0f32; 8];
        let expect_plain = softmax_lastdim(&x);
        softmax_rows_into(x.data(), 2, &mut out);
        assert_eq!(out, expect_plain.data());
    }

    #[test]
    fn backward_matches_finite_difference() {
        // d/dx of sum(w . softmax(x)) via the analytic formula vs numeric.
        let x0 = vec![0.3, -0.7, 1.2, 0.05];
        let w = [0.5, -1.0, 2.0, 0.25];
        let f = |xs: &[f32]| -> f32 {
            let t = Tensor::from_vec(Shape::d2(1, 4), xs.to_vec());
            let y = softmax_lastdim(&t);
            y.data().iter().zip(w.iter()).map(|(&a, &b)| a * b).sum()
        };
        let y = softmax_lastdim(&Tensor::from_vec(Shape::d2(1, 4), x0.clone()));
        let dy = Tensor::from_vec(Shape::d2(1, 4), w.to_vec());
        let dx = softmax_backward_lastdim(&y, &dy);
        for i in 0..4 {
            let mut xp = x0.clone();
            let mut xm = x0.clone();
            let eps = 1e-3;
            xp[i] += eps;
            xm[i] -= eps;
            let num = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 1e-3,
                "grad[{i}]: numeric {num} vs analytic {}",
                dx.data()[i]
            );
        }
    }
}
