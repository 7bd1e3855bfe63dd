//! Quantised-parameter serving profile: [`ScorerPrecision`] and the
//! parameter transform behind it.
//!
//! There is **one arithmetic**. Both profiles of [`crate::FrozenSeqFm`] run
//! the same kernels — the ones that reproduce the training graph's `f32`
//! logits bit for bit. A profile only chooses which `f32` snapshot those
//! kernels read:
//!
//! * [`ScorerPrecision::Exact`] reads the snapshot's parameters θ.
//! * [`ScorerPrecision::Fast`] reads θ′, built once by
//!   [`FrozenSeqFm::with_precision`]: θ with the two embedding tables and
//!   the attention projections replaced by their effective values through
//!   IEEE `binary16` (`f16`), and the FFN weight matrices by theirs through
//!   symmetric per-row `i8` with an `f32` scale. Linear terms, layer norms,
//!   biases and the output projection are θ's own, so the retrieval index's
//!   item linear partials do not depend on the profile.
//!
//! So `Fast` on θ **is** `Exact` on θ′, bit for bit — a unit test in
//! `frozen.rs` pins this on every Table-V variant and every forward shape —
//! and everything proved about the exact kernels (worker-count
//! determinism, batch independence) holds for `Fast` with no suite of its
//! own. The forward and the retrieval pruning bounds read the one served
//! snapshot, so quantisation adds **zero** width to the pruning envelope and
//! pruned `Fast` retrieval stays bitwise-equal to brute-force `Fast`
//! retrieval. θ′ is held in `f32` beside θ: `Fast` saves no memory.
//!
//! The documented per-logit error budget versus the exact profile is
//! `|fast − exact| ≤ 2e-2 + 1e-2·|exact|` on the paper's Table-V
//! configurations. It is quantisation error only, dominated by the `f16`
//! embedding step (relative error ≤ 2⁻¹¹ ≈ 4.9e-4 per coordinate). The
//! `precision_parity` integration tests pin both the ε envelope and
//! ranking-order preservation on every Table-V variant.

use crate::frozen::FrozenSeqFm;
use seqfm_autograd::FrozenParams;
use seqfm_tensor::{f16_from_f32, f32_from_f16, Tensor};
use std::sync::Arc;

/// Which parameters a frozen scorer feeds its (single set of) kernels.
///
/// * [`Exact`](ScorerPrecision::Exact) — the snapshot's `f32` parameters:
///   bit-identical to the training graph.
/// * [`Fast`](ScorerPrecision::Fast) — quantised parameters θ′:
///   `f16`-effective embedding tables and attention projections and
///   `i8`-effective FFN matrices, run through the *same* kernels.
///   Bit-identical to `Exact` on the quantised values, with a documented
///   per-logit ε versus `Exact` on the originals (see the
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

impl ScorerPrecision {
    /// The [`Scorer::name`](crate::Scorer::name) of a frozen SeqFM serving
    /// this profile.
    pub(crate) fn frozen_name(self) -> &'static str {
        match self {
            ScorerPrecision::Exact => "SeqFM[frozen]",
            ScorerPrecision::Fast => "SeqFM[frozen:fast]",
        }
    }
}

impl FrozenSeqFm {
    /// Switches the serving profile (see [`crate::precision`] for the error
    /// budget and guarantees). The profile selects *parameters only*: `Fast`
    /// builds θ′ once, here, and serves it through the same kernels, so it
    /// is bit-identical to an `Exact` model frozen from the quantised
    /// values. `Exact` serves θ again and drops θ′. [`FrozenSeqFm::params`]
    /// returns θ under either profile.
    #[must_use]
    pub fn with_precision(mut self, precision: ScorerPrecision) -> Self {
        if precision != self.precision {
            self.served = match precision {
                ScorerPrecision::Exact => Arc::clone(self.params()),
                ScorerPrecision::Fast => Arc::new(quantised(&self)),
            };
            self.precision = precision;
        }
        self
    }

    /// The active serving profile.
    pub fn precision(&self) -> ScorerPrecision {
        self.precision
    }
}

/// θ′: a copy of `m`'s snapshot θ with every tensor `Fast` quantises
/// replaced by its effective value, picked by the model's own ids. Same
/// names, order and epoch. Deterministic: the same snapshot always yields
/// the same bits.
fn quantised(m: &FrozenSeqFm) -> FrozenParams {
    let d = m.config().d;
    let f16_ids: Vec<_> = [m.emb_static, m.emb_dynamic]
        .into_iter()
        .chain(m.attn.iter().flat_map(|a| a.qkv()))
        .collect();
    let i8_ids: Vec<_> = m.ffn.iter().map(|l| l.w).collect();
    m.params().map_values(|id, t| {
        let eff = if f16_ids.contains(&id) {
            f16_effective(t)
        } else if i8_ids.contains(&id) {
            QuantMatrix::from_tensor(t, d).eff
        } else {
            return t.clone();
        };
        Tensor::from_vec(t.shape(), eff)
    })
}

/// `decode(encode(x))` through `f16` for every value of `t`.
pub(crate) fn f16_effective(t: &Tensor) -> Vec<f32> {
    t.data().iter().map(|&x| f32_from_f16(f16_from_f32(x))).collect()
}

/// The dequantized `f32` effective form of a symmetric per-row `i8`
/// quantized matrix: `eff[i][j] = code · scale_i` with
/// `scale_i = max_j |w[i][j]| / 127` and `code = round(w / scale_i)`. Only
/// `eff` is kept: it is the value θ′ holds.
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

#[cfg(test)]
mod tests {
    use super::*;
    use seqfm_tensor::Shape;

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
