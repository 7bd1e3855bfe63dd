//! Numerically-stable (masked) softmax over the last dimension.
//!
//! This is the attention-weight primitive of SeqFM's three views:
//!
//! * static view — plain softmax (paper Eq. 8);
//! * dynamic view — additive causal mask `m˙ᵢⱼ = 0 if i ≥ j else −∞`
//!   (Eq. 9–10);
//! * cross view — additive mask permitting only static↔dynamic interactions
//!   (Eq. 11–13).
//!
//! Masks are represented by [`AttnMask`], a plain `[n, m]` matrix of additive
//! terms (`0.0` = allowed, `f32::NEG_INFINITY` = blocked) shared across the
//! batch dimension. Rows that are *entirely* blocked softmax to all-zeros
//! rather than NaN, which keeps fully-masked padding rows inert.

use crate::Tensor;

/// An additive attention mask over score matrices of shape `[n, m]`.
///
/// Stored densely; entries are either `0.0` (interaction allowed) or
/// `f32::NEG_INFINITY` (interaction blocked), exactly as written in the
/// paper's Eq. (10) and Eq. (13).
#[derive(Clone, PartialEq)]
pub struct AttnMask {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl AttnMask {
    /// An all-allowed mask (equivalent to no mask).
    pub fn allow_all(rows: usize, cols: usize) -> Self {
        AttnMask { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Causal mask for the dynamic view: position `i` may attend to `j ≤ i`.
    ///
    /// Paper Eq. (10): `m˙ᵢⱼ = 0 if i ≥ j, −∞ otherwise`.
    pub fn causal(n: usize) -> Self {
        let mut m = Self::allow_all(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                m.data[i * n + j] = f32::NEG_INFINITY;
            }
        }
        m
    }

    /// Cross-view mask over the stacked `[n° + n˙]` features: only
    /// static↔dynamic interactions are allowed.
    ///
    /// Paper Eq. (13): `m*ᵢⱼ = 0 if i ≤ n° < j or j ≤ n° < i, −∞ otherwise`
    /// (with 1-based indices in the paper; this constructor is 0-based).
    pub fn cross(n_static: usize, n_dynamic: usize) -> Self {
        let n = n_static + n_dynamic;
        let mut m = Self::allow_all(n, n);
        for i in 0..n {
            for j in 0..n {
                let cross = (i < n_static) != (j < n_static);
                if !cross {
                    m.data[i * n + j] = f32::NEG_INFINITY;
                }
            }
        }
        m
    }

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

    /// `true` if entry `(i, j)` is blocked.
    pub fn is_blocked(&self, i: usize, j: usize) -> bool {
        self.data[i * self.cols + j] == f32::NEG_INFINITY
    }

    /// Additionally blocks *columns* `0..pad_len` in every row — the optional
    /// padding-mask extension (not part of the paper's formulation; see
    /// DESIGN.md §3). Rows that become fully blocked produce all-zero softmax
    /// output.
    pub fn block_leading_cols(&mut self, pad_len: usize) {
        let p = pad_len.min(self.cols);
        for i in 0..self.rows {
            for j in 0..p {
                self.data[i * self.cols + j] = f32::NEG_INFINITY;
            }
        }
    }
}

/// Softmax over the last dimension of a rank-2 or rank-3 tensor.
pub fn softmax_lastdim(x: &Tensor) -> Tensor {
    softmax_impl(x, None)
}

/// Masked softmax over the last dimension.
///
/// For rank-3 input `[b, n, m]` the mask must be `[n, m]` and is shared by all
/// batch slices; for rank-2 input `[n, m]` it applies directly.
///
/// # Panics
/// Panics if the mask dimensions do not match the trailing dimensions of `x`.
pub fn softmax_lastdim_masked(x: &Tensor, mask: &AttnMask) -> Tensor {
    let (n, m) = trailing_dims(x);
    assert_eq!(
        (mask.rows(), mask.cols()),
        (n, m),
        "mask [{}x{}] does not match trailing dims of {}",
        mask.rows(),
        mask.cols(),
        x.shape()
    );
    softmax_impl(x, Some(mask))
}

fn trailing_dims(x: &Tensor) -> (usize, usize) {
    let s = x.shape();
    match s.rank() {
        2 => (s.dim(0), s.dim(1)),
        3 => (s.dim(1), s.dim(2)),
        r => panic!("softmax expects rank 2 or 3, got rank {r} ({s})"),
    }
}

fn softmax_impl(x: &Tensor, mask: Option<&AttnMask>) -> Tensor {
    let m = x.shape().last_dim();
    let rows_per_slice = match x.shape().rank() {
        2 => x.shape().dim(0),
        3 => x.shape().dim(1),
        r => panic!("softmax expects rank 2 or 3, got rank {r}"),
    };
    let mut out = Tensor::zeros(x.shape());
    softmax_rows_into(x.data(), m, rows_per_slice, mask, out.data_mut());
    out
}

/// Stable masked softmax of a single row, in place — the one home of the
/// row arithmetic (the out-of-place [`softmax_row`] copies, then calls this).
/// Fully-masked rows yield all zeros.
///
/// An unmasked row of two finite entries — every history row of the cross
/// view at `n° = 2`, every row of the static view there — takes one `exp`
/// instead of two: the generic loop's term for the row maximum is
/// `exp(hi − hi) = exp(+0.0)`, which is exactly `1.0` (pinned in the tests),
/// so only `e = exp(lo − hi)` is computed and `(1, e)` / `(e, 1)` placed by
/// a select; the sum `(0 + e₀) + e₁` and the `· 1/sum` are the generic
/// expressions. Same bits, half the `exp` calls; a non-finite entry (whose
/// `hi − hi` is NaN, or which the `−∞` rules cover) takes the generic loop.
pub(crate) fn softmax_row_inplace(x: &mut [f32], mask: Option<&[f32]>) {
    if let (None, [x0, x1]) = (mask, &mut *x) {
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
    for (i, &v) in x.iter().enumerate() {
        let v = v + mask.map_or(0.0, |m| m[i]);
        if v > max {
            max = v;
        }
    }
    if max == f32::NEG_INFINITY {
        x.fill(0.0);
        return;
    }
    let mut sum = 0.0f32;
    for (i, slot) in x.iter_mut().enumerate() {
        let v = *slot + mask.map_or(0.0, |m| m[i]);
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
fn softmax_row(x: &[f32], mask: Option<&[f32]>, out: &mut [f32]) {
    out.copy_from_slice(x);
    softmax_row_inplace(out, mask);
}

/// Out-buffer variant of [`softmax_lastdim`] / [`softmax_lastdim_masked`]
/// operating on raw slices — the inference hot path, where the caller owns a
/// reusable scratch buffer and wants zero allocations.
///
/// `x` holds `rows_per_slice`-row slices of width `m` (any number of batch
/// slices); the optional mask is `[rows_per_slice, m]` and shared across
/// slices, exactly as in the tensor-level functions.
///
/// # Panics
/// Panics if lengths disagree or the mask dims do not match.
pub fn softmax_rows_into(
    x: &[f32],
    m: usize,
    rows_per_slice: usize,
    mask: Option<&AttnMask>,
    out: &mut [f32],
) {
    assert_eq!(x.len(), out.len(), "softmax_rows_into length mismatch");
    assert_eq!(x.len() % m, 0, "softmax_rows_into: input not a multiple of row width {m}");
    if let Some(mk) = mask {
        assert_eq!(
            (mk.rows(), mk.cols()),
            (rows_per_slice, m),
            "mask [{}x{}] does not match rows_per_slice {rows_per_slice} x width {m}",
            mk.rows(),
            mk.cols()
        );
    }
    let rows = x.len().checked_div(m).unwrap_or(0);
    // exp dominates a softmax row — weight the op estimate accordingly so
    // modest score matrices still clear the fan-out threshold.
    if super::dispatch::should_par(x.len() * 16, rows) {
        seqfm_parallel::par_units(seqfm_parallel::global(), [out], [m], |r0, [out_rows]| {
            let x_rows = &x[r0 * m..r0 * m + out_rows.len()];
            softmax_rows(x_rows, m, rows_per_slice, mask, out_rows, r0)
        });
    } else {
        softmax_rows(x, m, rows_per_slice, mask, out, 0);
    }
}

/// Softmaxes a contiguous block of rows whose first row has global index
/// `r0` (the mask is indexed by *global* row modulo `rows_per_slice`).
fn softmax_rows(
    x: &[f32],
    m: usize,
    rows_per_slice: usize,
    mask: Option<&AttnMask>,
    out: &mut [f32],
    r0: usize,
) {
    for (ri, (row_in, row_out)) in x.chunks_exact(m).zip(out.chunks_exact_mut(m)).enumerate() {
        let mask_row = mask.map(|mk| {
            let r = (r0 + ri) % rows_per_slice;
            &mk.data()[r * m..(r + 1) * m]
        });
        softmax_row(row_in, mask_row, row_out);
    }
}

/// Backward pass of [`softmax_lastdim`] / [`softmax_lastdim_masked`]:
/// given the softmax output `y` and upstream gradient `dy`, returns
/// `dx = y ⊙ (dy − Σⱼ dyⱼ·yⱼ)` per row. The mask needs no special handling
/// because blocked positions have `y = 0`.
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
    use crate::testutil::assert_close;
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
        let m = AttnMask::causal(3);
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
        let m = AttnMask::cross(2, 3);
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
        let mut m = AttnMask::causal(2);
        m.block_leading_cols(2); // now every entry of row 0 is blocked
        let x = Tensor::from_vec(Shape::d2(2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let y = softmax_lastdim_masked(&x, &m);
        assert_close(y.row(0), &[0.0, 0.0], 1e-6);
        assert!(!y.has_non_finite());
    }

    #[test]
    fn rank3_shares_mask_across_batch() {
        let m = AttnMask::causal(2);
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
        let mask_full = AttnMask::causal(4);
        for r in 0..4 {
            let x = [0.3f32, -1.7, 2.5, 0.01];
            let mrow = &mask_full.data()[r * 4..(r + 1) * 4];
            let mut expect = [0.0f32; 4];
            softmax_row(&x, Some(mrow), &mut expect);
            let mut inplace = x;
            softmax_row_inplace(&mut inplace, Some(mrow));
            assert_eq!(inplace, expect, "row {r} diverges");
        }
        // Fully-masked row → zeros on both paths.
        let mut blocked = AttnMask::causal(2);
        blocked.block_leading_cols(2);
        let mut x = [1.0f32, 2.0];
        softmax_row_inplace(&mut x, Some(&blocked.data()[0..2]));
        assert_eq!(x, [0.0, 0.0]);
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
        // (`v + 0.0` is what the unmasked loop adds too).
        let check = |pair: [f32; 2]| {
            let (mut fast, mut generic) = (pair, pair);
            softmax_row_inplace(&mut fast, None);
            softmax_row_inplace(&mut generic, Some(&[0.0, 0.0]));
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
        let m = AttnMask::causal(2);
        let x =
            Tensor::from_vec(Shape::d3(2, 2, 2), vec![0.3, -1.0, 2.0, 0.1, 5.0, 4.0, -2.0, 0.0]);
        let expect = softmax_lastdim_masked(&x, &m);
        let mut out = vec![0.0f32; 8];
        softmax_rows_into(x.data(), 2, 2, Some(&m), &mut out);
        assert_eq!(out, expect.data(), "masked rows_into diverges from tensor softmax");
        let expect_plain = softmax_lastdim(&x);
        softmax_rows_into(x.data(), 2, 2, None, &mut out);
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
