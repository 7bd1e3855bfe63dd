//! The operation set of the autodiff tape.

use crate::store::ParamId;
use crate::Var;
use std::sync::Arc;

/// Per-row statistics cached by the LayerNorm forward pass for its backward.
#[derive(Clone)]
pub(crate) struct LnCache {
    /// Mean of each length-`d` row.
    pub mean: Vec<f32>,
    /// Reciprocal standard deviation (`1/√(var+ε)`) of each row.
    pub rstd: Vec<f32>,
}

/// Every differentiable operation the tape supports.
///
/// Each variant stores its parent [`Var`]s plus whatever forward-pass context
/// the backward pass needs (attention weights, dropout keep-masks, gather indices,
/// LayerNorm row statistics). Constant context is wrapped in [`Arc`] so nodes
/// stay cheap to construct when the same index buffer is reused across a
/// batch.
pub(crate) enum Op {
    /// Constant input; never receives gradient.
    Input,
    /// Leaf copied from a [`crate::ParamStore`] parameter; gradient flows
    /// back into the store.
    Param(ParamId),
    /// Embedding lookup: rows of `table` selected by `idx` (`-1` = padding →
    /// zero row, no gradient). Value shape `[b, n, d]` with `idx.len() == b·n`.
    Gather {
        table: ParamId,
        idx: Arc<Vec<i64>>,
    },

    // -- elementwise ---------------------------------------------------------
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Neg(Var),
    Scale(Var, f32),
    AddScalar(Var),
    Square(Var),
    Relu(Var),
    Sigmoid(Var),
    Tanh(Var),
    Softplus(Var),
    /// `x + bias` where bias is rank-1 broadcast over rows.
    AddBias {
        x: Var,
        b: Var,
    },

    // -- linear algebra ------------------------------------------------------
    /// `A[m,k]·B[k,n]`; a rank-3 `A[b,r,k]` is read as `[b·r, k]`.
    Matmul(Var, Var),
    /// `A[m,k]·B[n,k]ᵀ`.
    MatmulNT(Var, Var),
    /// Batched `A[b,m,k]·B[b,k,n]`.
    Bmm(Var, Var),
    /// Batched `A[b,m,k]·B[b,n,k]ᵀ` (attention scores `Q·Kᵀ`).
    BmmNT(Var, Var),
    /// Left-broadcast matmul `W[p,q]·X[b,q,d] → [b,p,d]` (CIN layers).
    LMatmul {
        w: Var,
        x: Var,
    },
    /// Row-wise dot product `[b,d]·[b,d] → [b]`.
    RowDot(Var, Var),

    // -- attention / normalisation / regularisation --------------------------
    /// Softmax over the last dim. The node value *is* the softmax output;
    /// the backward pass needs only it.
    Softmax {
        x: Var,
    },
    /// Structured causal attention over `[b, n, d]` projections (Eq. 9–10):
    /// only the lower triangle `j ≤ i` is scored. `weights` holds the packed
    /// softmax triangle per slice (`n·(n + 1)/2` floats), pooled like
    /// [`LnCache`].
    AttentionCausal {
        q: Var,
        k: Var,
        v: Var,
        scale: f32,
        weights: Vec<f32>,
    },
    /// Structured cross-view attention over interleaved `[b, ns + nd, d]`
    /// projections (Eq. 11–13): only static↔dynamic pairs are scored.
    /// `weights` holds the two admitted softmax blocks per slice
    /// (`2·ns·nd` floats), pooled like [`LnCache`].
    AttentionCross {
        q: Var,
        k: Var,
        v: Var,
        ns: usize,
        scale: f32,
        weights: Vec<f32>,
    },
    /// LayerNorm over the last dim with learned `scale`/`bias` (Eq. 16).
    LayerNorm {
        x: Var,
        scale: Var,
        bias: Var,
        cache: LnCache,
    },
    /// Inverted dropout; `mask` entries are `0` or `1/(1-p)`.
    Dropout {
        x: Var,
        mask: Arc<Vec<f32>>,
    },

    // -- shape / gather ------------------------------------------------------
    Reshape(Var),
    /// Concatenate rank-2 tensors along the last dim: `[b,d_i] → [b,Σd_i]`.
    ConcatCols(Vec<Var>),
    /// Concatenate rank-3 tensors along axis 1 (cross-view stack, Eq. 12).
    ConcatAxis1(Var, Var),
    /// Select rows along axis 1 by constant indices: `[b,n,d] → [b,|idx|,d]`.
    IndexSelectAxis1 {
        x: Var,
        idx: Arc<Vec<usize>>,
    },
    /// Contiguous slice along axis 1.
    SliceAxis1 {
        x: Var,
        start: usize,
        len: usize,
    },
    /// Broadcast `[b,d] → [b,n,d]`.
    ExpandAxis1 {
        x: Var,
    },
    /// `X[b,n,d] + P[n,d]` (positional embeddings).
    AddBroadcastBatch {
        x: Var,
        p: Var,
    },

    // -- reductions ----------------------------------------------------------
    /// Mean over axis 1: `[b,n,d] → [b,d]` (intra-view pooling, Eq. 14).
    MeanAxis1(Var),
    SumAxis1(Var),
    /// Sum over last dim, rank r → r−1.
    SumLast(Var),
    MeanAll(Var),
    SumAll(Var),

    // -- losses --------------------------------------------------------------
    /// Numerically-stable `BCE(σ(logit), target)` per element → `[b]`.
    BceWithLogits {
        logits: Var,
        targets: Arc<Vec<f32>>,
    },
}
