#![warn(missing_docs)]

//! # seqfm-tensor
//!
//! Dense `f32` tensor library underpinning the SeqFM reproduction.
//!
//! The paper's models only ever need rank-1/2/3 row-major tensors, so this
//! crate deliberately implements a small, fast, predictable subset of a
//! general tensor library instead of an n-dimensional strided one:
//!
//! * [`Tensor`] — contiguous row-major `f32` storage plus a [`Shape`].
//! * 2-D matrix multiply kernels in all transpose flavours
//!   ([`matmul_nn`], [`matmul_nt`], [`matmul_tn`]) with cache-friendly loop
//!   ordering.
//! * Batched (rank-3) matrix multiplies ([`bmm_nn`], [`bmm_nt`], [`bmm_tn`]).
//! * Numerically-stable softmax over the last dimension
//!   ([`softmax_lastdim`]) — the core primitive of the paper's multi-view
//!   self-attention (Eq. 8, 9, 11). No view applies a mask: the causal and
//!   cross views are structural kernels that never use a blocked score.
//! * Reductions over axis 1 and the last axis (intra-view pooling, Eq. 14).
//! * Allocation-free `_into` variants of the hot kernels plus a fused
//!   [`attention_into`] (the static view) — the building blocks of the
//!   graph-free inference path (`seqfm_core`'s `Scorer`/`FrozenSeqFm`) — and
//!   the structured kernels of the two masked views that serving and the
//!   autograd tape share: causal ([`attention_causal_into`],
//!   [`attention_causal_backward_into`]) and cross-view
//!   ([`attention_cross_into`], [`attention_cross_backward_into`]).
//! * [`testutil`]: test helpers and the kernels' reference oracle — the
//!   dense masked attention pipeline and its additive masks — which nothing
//!   outside tests and benches calls.
//! * A thread-local [`workspace`] arena ([`Workspace`]) owning all kernel
//!   temporaries, and cache-blocked packed matmul kernels
//!   ([`kernels::matmul::tiled`]) that are **bit-identical** to the naive
//!   references ([`kernels::matmul::naive`]) — see the matmul module docs.
//! * The `f16` codec ([`f16_from_f32`], [`f32_from_f16`]) behind the
//!   serving `Fast` profile's quantised parameters.
//!
//! There is one arithmetic and one body per kernel: every kernel is safe,
//! portable Rust that the compiler vectorises for the build target
//! (`x86-64-v3` in this workspace), and none fuses a multiply into an add or
//! approximates `exp` — so every target computes the same bits. No code
//! here is specific to a CPU or checks one at run time.
//!
//! All shape errors are programming errors and panic with a descriptive
//! message; the panic contract is documented on each function.

mod shape;
mod tensor;

pub mod kernels;
pub mod testutil;
pub mod workspace;

pub use kernels::attention::{
    attention_causal_backward_into, attention_causal_into, attention_cross_backward_into,
    attention_cross_into, attention_into,
};
pub use kernels::bmm::{bmm_nn, bmm_nn_into, bmm_nt, bmm_nt_into, bmm_tn, bmm_tn_into};
pub use kernels::elementwise as ew;
pub use kernels::f16::{f16_from_f32, f32_from_f16};
pub use kernels::matmul::{
    matmul_nn, matmul_nn_into, matmul_nt, matmul_nt_into, matmul_tn, matmul_tn_into,
};
pub use kernels::reduce;
pub use kernels::softmax::{
    softmax_backward_into, softmax_backward_lastdim, softmax_lastdim, softmax_rows_into,
};
pub use shape::Shape;
pub use tensor::Tensor;
pub use workspace::{Workspace, WsBuf};
