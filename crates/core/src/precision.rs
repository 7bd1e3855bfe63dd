//! Quantised-parameter serving profile: [`ScorerPrecision`] and the
//! parameter bundle [`FrozenParamsFast`].
//!
//! There is **one arithmetic**. Both profiles of [`crate::FrozenSeqFm`] run
//! the same kernels — the ones that reproduce the training graph's `f32`
//! logits bit for bit, every value computed by the graph's own chain of
//! operations. (The cross view — the graph's and the frozen forward's alike —
//! is structured, not dense: it never forms the pairs the cross mask
//! discards, and a shared-history batch additionally reads the one history
//! block in place, `seqfm_tensor::attention_cross_shared_into`; with
//! non-finite parameters graph and frozen agree on which logits are NaN,
//! NaN payload bits being no part of the contract.)
//! A profile only chooses which parameters those kernels read:
//!
//! * [`ScorerPrecision::Exact`] reads the snapshot's `f32` parameters θ.
//! * [`ScorerPrecision::Fast`] reads quantised parameters θ′. The two
//!   embedding tables are stored as IEEE `binary16` (`f16`) bit patterns and
//!   widened to `f32` at gather time, so the dominant full-catalog gather
//!   moves half the bytes. The small matrices are eagerly dequantised once
//!   into cached `f32` *effective* weights `θ′ = decode(encode(θ))`: the
//!   per-view attention projections through `f16`, the FFN weight matrices
//!   through symmetric per-row `i8` with an `f32` scale.
//!
//! So `Fast` on θ **is** `Exact` on θ′, bit for bit — a unit test in
//! `frozen.rs` pins this on every Table-V variant and every forward shape —
//! and everything proved about the exact kernels (worker-count
//! determinism, batch independence) holds for `Fast` with no suite of its
//! own. The retrieval pruning bounds read the same θ′, so
//! quantisation contributes **zero** width to the pruning envelope and
//! pruned `Fast` retrieval stays bitwise-equal to brute-force `Fast`
//! retrieval.
//!
//! The documented per-logit error budget versus the exact profile is
//! `|fast − exact| ≤ 2e-2 + 1e-2·|exact|` on the paper's Table-V
//! configurations. It is quantisation error only, dominated by the `f16`
//! embedding step (relative error ≤ 2⁻¹¹ ≈ 4.9e-4 per coordinate). The
//! `precision_parity` integration tests pin both the ε envelope and
//! ranking-order preservation on every Table-V variant.

use crate::frozen::FrozenSeqFm;
use seqfm_data::PAD;
use seqfm_tensor::{f16_from_f32, f32_from_f16, widen_f16, Tensor};

/// Which parameters a frozen scorer feeds its (single set of) kernels.
///
/// * [`Exact`](ScorerPrecision::Exact) — the snapshot's `f32` parameters:
///   bit-identical to the training graph.
/// * [`Fast`](ScorerPrecision::Fast) — quantised parameters: `f16`
///   embedding tables widened on gather, `f16`-effective attention
///   projections and `i8`-effective FFN matrices, run through the *same*
///   kernels. Bit-identical to `Exact` on the quantised values, with a
///   documented per-logit ε versus `Exact` on the originals (see the
///   [module docs](crate::precision)).
///
/// Select it per engine via `EngineConfig::builder().precision(..)` or
/// directly with [`FrozenSeqFm::with_precision`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ScorerPrecision {
    /// Bit-exact `f32` serving — the graph's logits, bit for bit.
    #[default]
    Exact,
    /// Quantised-parameter serving: `f16`/`i8`-effective θ′ through the
    /// exact kernels.
    Fast,
}

/// An `f16`-encoded embedding table: `rows × d` IEEE `binary16` bit
/// patterns, widened to `f32` on gather (hardware `vcvtph2ps` when
/// available — the widening is bit-identical either way).
pub(crate) struct F16Table {
    rows: usize,
    d: usize,
    bits: Vec<u16>,
}

impl F16Table {
    fn from_tensor(t: &Tensor, d: usize) -> Self {
        let data = t.data();
        assert_eq!(data.len() % d, 0, "F16Table: table len not a multiple of d");
        let bits = data.iter().map(|&x| f16_from_f32(x)).collect();
        Self { rows: data.len() / d, d, bits }
    }

    /// Decoded-`f32` gather with the same contract as the exact profile's
    /// [`seqfm_tensor::ew::gather_rows_into`]: `PAD` (negative) ids produce
    /// zero rows.
    ///
    /// # Panics
    /// Panics if `out` is smaller than `idx.len() · d` or an id is out of
    /// range.
    pub(crate) fn gather(&self, idx: &[i64], out: &mut [f32]) {
        let d = self.d;
        assert!(out.len() >= idx.len() * d, "F16Table::gather: out too small");
        for (r, &id) in idx.iter().enumerate() {
            let dst = &mut out[r * d..(r + 1) * d];
            if id == PAD || id < 0 {
                dst.fill(0.0);
                continue;
            }
            let row = id as usize;
            assert!(row < self.rows, "F16Table::gather: row {row} out of range ({})", self.rows);
            widen_f16(&self.bits[row * d..(row + 1) * d], dst);
        }
    }
}

/// One view's attention projections as `f16`-effective `f32` matrices
/// (`d × d`, row-major): `θ′ = decode(encode(θ))`. Compute and bounds both
/// read these, so the attention-weight quantization adds nothing to the
/// pruning envelope.
pub(crate) struct FastAttn {
    pub(crate) wq: Vec<f32>,
    pub(crate) wk: Vec<f32>,
    pub(crate) wv: Vec<f32>,
}

pub(crate) fn f16_effective(t: &Tensor) -> Vec<f32> {
    t.data().iter().map(|&x| f32_from_f16(f16_from_f32(x))).collect()
}

/// The dequantized `f32` effective form of a symmetric per-row `i8`
/// quantized matrix: `eff[i][j] = code · scale_i` with
/// `scale_i = max_j |w[i][j]| / 127` and `code = round(w / scale_i)`. Only
/// `eff` (a few KB per FFN layer at serving `d`) is kept — both the `Fast`
/// forward pass and the bounds read it, keeping the two in exact agreement.
pub(crate) struct QuantMatrix {
    pub(crate) eff: Vec<f32>,
}

impl QuantMatrix {
    pub(crate) fn from_tensor(t: &Tensor, cols: usize) -> Self {
        let data = t.data();
        assert_eq!(data.len() % cols, 0, "QuantMatrix: len not a multiple of cols");
        let mut eff = vec![0.0f32; data.len()];
        for (row, eff_row) in data.chunks_exact(cols).zip(eff.chunks_exact_mut(cols)) {
            let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            if max_abs == 0.0 {
                continue; // all-zero row: scale 0, codes 0, eff 0.
            }
            let s = max_abs / 127.0;
            for (e, &x) in eff_row.iter_mut().zip(row) {
                let code = (x / s).round().clamp(-127.0, 127.0) as i8;
                *e = code as f32 * s;
            }
        }
        Self { eff }
    }
}

/// The quantized parameter bundle behind [`ScorerPrecision::Fast`].
///
/// Built once from a frozen model by [`FrozenSeqFm::with_precision`]; the
/// linear-term vectors (`w_static`, `w_dynamic`, `w0`), layer norms, biases
/// and the output projection `p` stay full `f32` — they are tiny, and the
/// retrieval index's item linear partials must be profile-independent.
pub struct FrozenParamsFast {
    pub(crate) emb_static: F16Table,
    pub(crate) emb_dynamic: F16Table,
    pub(crate) attn: [FastAttn; 3],
    pub(crate) ffn_w: Vec<QuantMatrix>,
}

impl FrozenParamsFast {
    /// Quantizes a frozen model's parameters. Deterministic: the same
    /// snapshot always yields the same bits.
    pub(crate) fn build(m: &FrozenSeqFm) -> Self {
        let d = m.config().d;
        let attn = std::array::from_fn(|v| {
            let ids = &m.attn[v];
            FastAttn {
                wq: f16_effective(m.t(ids.wq)),
                wk: f16_effective(m.t(ids.wk)),
                wv: f16_effective(m.t(ids.wv)),
            }
        });
        let ffn_w = m.ffn.iter().map(|l| QuantMatrix::from_tensor(m.t(l.w), d)).collect();
        Self {
            emb_static: F16Table::from_tensor(m.t(m.emb_static), d),
            emb_dynamic: F16Table::from_tensor(m.t(m.emb_dynamic), d),
            attn,
            ffn_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqfm_tensor::Shape;

    #[test]
    fn f16_table_gather_zeroes_pad_and_decodes_rows() {
        let t = Tensor::from_vec(Shape::d2(3, 4), (0..12).map(|i| 0.1 * i as f32 - 0.5).collect());
        let table = F16Table::from_tensor(&t, 4);
        let mut out = vec![7.0f32; 12];
        table.gather(&[2, PAD, 0], &mut out);
        assert_eq!(&out[4..8], &[0.0; 4], "PAD row must be zero");
        for (j, (&got, &want)) in out[..4].iter().zip(&t.data()[8..12]).enumerate() {
            let err = (got - want).abs();
            assert!(err <= want.abs() * 4.9e-4 + 1e-6, "row 2 col {j}: {got} vs {want}");
        }
    }

    #[test]
    fn quant_matrix_row_error_is_bounded_by_half_a_step() {
        let vals: Vec<f32> = (0..32).map(|i| ((i * 37 + 11) % 64) as f32 / 17.0 - 1.5).collect();
        let t = Tensor::from_vec(Shape::d2(4, 8), vals.clone());
        let qm = QuantMatrix::from_tensor(&t, 8);
        for r in 0..4 {
            let row = &vals[r * 8..(r + 1) * 8];
            let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let step = max_abs / 127.0;
            for (c, &rv) in row.iter().enumerate() {
                let err = (qm.eff[r * 8 + c] - rv).abs();
                assert!(err <= step * 0.5 + 1e-7, "({r},{c}): err {err} > step/2 {step}");
            }
        }
    }

    #[test]
    fn zero_rows_quantize_to_exact_zero() {
        let t = Tensor::from_vec(Shape::d2(2, 4), vec![0.0; 8]);
        let qm = QuantMatrix::from_tensor(&t, 4);
        assert!(qm.eff.iter().all(|&x| x == 0.0));
    }
}
