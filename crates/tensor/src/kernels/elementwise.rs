//! Elementwise kernels and in-place accumulation helpers.

use crate::Tensor;

/// `a + b` elementwise.
///
/// # Panics
/// Panics on shape mismatch.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    a.zip(b, |x, y| x + y)
}

/// `a - b` elementwise.
///
/// # Panics
/// Panics on shape mismatch.
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    a.zip(b, |x, y| x - y)
}

/// `a * b` elementwise (Hadamard product).
///
/// # Panics
/// Panics on shape mismatch.
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    a.zip(b, |x, y| x * y)
}

/// `a * s` elementwise.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    a.map(|x| x * s)
}

/// In-place `acc += x` (same shape).
///
/// # Panics
/// Panics on shape mismatch.
pub fn add_assign(acc: &mut Tensor, x: &Tensor) {
    assert!(
        acc.shape().same(&x.shape()),
        "add_assign shape mismatch: {} vs {}",
        acc.shape(),
        x.shape()
    );
    for (a, &b) in acc.data_mut().iter_mut().zip(x.data()) {
        *a += b;
    }
}

/// In-place `acc += s * x` (same shape). The classic `axpy`.
///
/// # Panics
/// Panics on shape mismatch.
pub fn axpy(acc: &mut Tensor, s: f32, x: &Tensor) {
    assert!(acc.shape().same(&x.shape()), "axpy shape mismatch: {} vs {}", acc.shape(), x.shape());
    for (a, &b) in acc.data_mut().iter_mut().zip(x.data()) {
        *a += s * b;
    }
}

/// Adds a rank-1 bias `b[d]` to every length-`d` row of `x` (rank 2 or 3 with
/// last dimension `d`).
///
/// # Panics
/// Panics if `b` is not rank 1 or `x.last_dim() != b.len()`.
pub fn add_bias(x: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(b.shape().rank(), 1, "bias must be rank 1, got {}", b.shape());
    let d = b.numel();
    assert_eq!(x.shape().last_dim(), d, "bias dim {d} does not match last dim of {}", x.shape());
    let mut out = x.clone();
    add_bias_rows_inplace(out.data_mut(), b.data());
    out
}

/// `x[r, :] += bias` for every length-`bias.len()` row of `x` — the bias
/// add of [`add_bias`], of the autograd tape's `Graph::add_bias` and of the
/// frozen forward's FFN and head, which all run this body.
pub fn add_bias_rows_inplace(x: &mut [f32], bias: &[f32]) {
    for row in x.chunks_exact_mut(bias.len()) {
        for (o, &bv) in row.iter_mut().zip(bias) {
            *o += bv;
        }
    }
}

/// Embedding gather: slot `s` of `out` receives row `idx[s]` of the
/// row-major `[rows, d]` `table`, or zeros for a negative (padding) index.
/// Overwrites `out[..idx.len() * d]`. The autograd tape's `Graph::gather`
/// and the frozen forward's exact-profile gathers both run this body.
///
/// # Panics
/// Panics if `d == 0`, an index is out of table range or `out` is
/// shorter than `idx.len() * d`.
pub fn gather_rows_into(table: &[f32], d: usize, idx: &[i64], out: &mut [f32]) {
    let rows = table.len() / d;
    for (&i, dst) in idx.iter().zip(out[..idx.len() * d].chunks_exact_mut(d)) {
        if i < 0 {
            dst.fill(0.0);
            continue;
        }
        let i = i as usize;
        assert!(i < rows, "gather index {i} out of range ({rows} rows)");
        dst.copy_from_slice(&table[i * d..(i + 1) * d]);
    }
}

/// The LayerNorm variance guard: the paper's "small bias term added in case
/// σ = 0" (Eq. 16). Every LayerNorm — the tape's and the frozen forward's —
/// and the retrieval bounds over it read this one value.
pub const LN_EPS: f32 = 1e-5;

/// LayerNorm over each length-`d` row of `x` (`d = scale.len()`, paper
/// Eq. 16): `out = (x − μ)·rstd·scale + bias` with
/// `rstd = 1/√(σ² + LN_EPS)`,
/// writing each row's `μ` and `rstd` to `mean[r]` / `rstd[r]` for the
/// backward pass. The autograd tape's `Graph::layer_norm` and the frozen
/// forward's FFN both run this body.
///
/// # Panics
/// Panics if `out`, `mean` or `rstd` is shorter than `x` needs, or `bias`
/// is shorter than `scale`.
pub fn layer_norm_into(
    x: &[f32],
    scale: &[f32],
    bias: &[f32],
    out: &mut [f32],
    mean: &mut [f32],
    rstd: &mut [f32],
) {
    let d = scale.len();
    let (bias, out) = (&bias[..d], &mut out[..x.len()]);
    for (r, (row, orow)) in x.chunks_exact(d).zip(out.chunks_exact_mut(d)).enumerate() {
        let mu = row.iter().sum::<f32>() / d as f32;
        let var = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / d as f32;
        let rs = 1.0 / (var + LN_EPS).sqrt();
        mean[r] = mu;
        rstd[r] = rs;
        for ((&xi, o), (&sc, &bi)) in row.iter().zip(orow.iter_mut()).zip(scale.iter().zip(bias)) {
            *o = (xi - mu) * rs * sc + bi;
        }
    }
}

/// Sums each length-`d` row of `x` into a rank-1 accumulator (the backward
/// pass of [`add_bias`]).
///
/// # Panics
/// Panics if `acc.len()` does not equal `x.last_dim()`.
pub fn accumulate_rows(acc: &mut [f32], x: &Tensor) {
    let d = x.shape().last_dim();
    assert_eq!(acc.len(), d, "accumulator len {} != last dim of {}", acc.len(), x.shape());
    for row in x.data().chunks_exact(d) {
        for (a, &v) in acc.iter_mut().zip(row) {
            *a += v;
        }
    }
}

/// Rectified linear unit.
pub fn relu(x: &Tensor) -> Tensor {
    x.map(|v| v.max(0.0))
}

/// Logistic sigmoid, numerically stable for large `|x|`.
pub fn sigmoid(x: &Tensor) -> Tensor {
    x.map(sigmoid_scalar)
}

/// Stable scalar sigmoid.
pub fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

/// Stable scalar softplus `ln(1 + e^x) = max(x, 0) + ln(1 + e^{-|x|})`.
pub fn softplus_scalar(x: f32) -> f32 {
    x.max(0.0) + (-x.abs()).exp().ln_1p()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::assert_close;
    use crate::{Shape, Tensor};

    #[test]
    fn basic_arithmetic() {
        let a = Tensor::vector(vec![1.0, -2.0, 3.0]);
        let b = Tensor::vector(vec![0.5, 0.5, 0.5]);
        assert_close(add(&a, &b).data(), &[1.5, -1.5, 3.5], 1e-6);
        assert_close(sub(&a, &b).data(), &[0.5, -2.5, 2.5], 1e-6);
        assert_close(mul(&a, &b).data(), &[0.5, -1.0, 1.5], 1e-6);
        assert_close(scale(&a, 2.0).data(), &[2.0, -4.0, 6.0], 1e-6);
    }

    #[test]
    fn in_place_accumulation() {
        let mut acc = Tensor::vector(vec![1.0, 1.0]);
        let x = Tensor::vector(vec![2.0, 3.0]);
        add_assign(&mut acc, &x);
        assert_close(acc.data(), &[3.0, 4.0], 1e-6);
        axpy(&mut acc, -2.0, &x);
        assert_close(acc.data(), &[-1.0, -2.0], 1e-6);
    }

    #[test]
    fn bias_broadcast_rank2_and_rank3() {
        let x2 = Tensor::from_vec(Shape::d2(2, 3), vec![0.0; 6]);
        let b = Tensor::vector(vec![1.0, 2.0, 3.0]);
        let y = add_bias(&x2, &b);
        assert_close(y.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0], 1e-6);

        let x3 = Tensor::from_vec(Shape::d3(2, 2, 3), vec![10.0; 12]);
        let y3 = add_bias(&x3, &b);
        assert_eq!(y3.at3(1, 1, 2), 13.0);
    }

    #[test]
    fn accumulate_rows_is_bias_backward() {
        let x = Tensor::from_vec(Shape::d2(3, 2), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut acc = vec![0.0; 2];
        accumulate_rows(&mut acc, &x);
        assert_close(&acc, &[9.0, 12.0], 1e-6);
    }

    #[test]
    fn stable_sigmoid_and_softplus() {
        assert!((sigmoid_scalar(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid_scalar(100.0) <= 1.0);
        assert!(sigmoid_scalar(-100.0) >= 0.0);
        assert!(sigmoid_scalar(-100.0) < 1e-30);
        // softplus(0) = ln 2
        assert!((softplus_scalar(0.0) - std::f32::consts::LN_2).abs() < 1e-6);
        // softplus(x) ~ x for large x; finite for very negative x
        assert!((softplus_scalar(50.0) - 50.0).abs() < 1e-3);
        assert!(softplus_scalar(-80.0) >= 0.0);
        assert!(softplus_scalar(-80.0).is_finite());
    }

    #[test]
    fn relu_clamps_negative() {
        let x = Tensor::vector(vec![-1.0, 0.0, 2.0]);
        assert_close(relu(&x).data(), &[0.0, 0.0, 2.0], 1e-6);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_assign_shape_checked() {
        let mut a = Tensor::zeros(Shape::d1(2));
        let b = Tensor::zeros(Shape::d1(3));
        add_assign(&mut a, &b);
    }
}
