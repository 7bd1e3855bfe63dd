#![warn(missing_docs)]

//! # seqfm-nn
//!
//! Neural-network building blocks shared by SeqFM and every baseline:
//!
//! * [`init`] — deterministic weight initializers (Xavier, Gaussian,
//!   embedding-scaled).
//! * [`layers`] — [`Linear`], [`Embedding`] (zero-padding semantics),
//!   [`LayerNorm`], single-head [`SelfAttention`] (paper Eq. 8/9/11),
//!   the shared [`ResidualFfn`] (Eq. 15), [`Mlp`], and a [`GruCell`] for the
//!   RRN baseline.
//! * [`optim`] — [`Sgd`] and [`Adam`] with lazy sparse-row embedding updates
//!   (paper §IV-D trains everything with Adam).
//! * [`checkpoint`] — versioned binary save/load of all parameters.

pub mod checkpoint;
pub mod init;
pub mod layers;
pub mod optim;

pub use layers::{
    attention_scale, CrossHistory, Embedding, GruCell, LayerNorm, Linear, Mlp, ResidualFfn,
    SelfAttention,
};
pub use optim::{clip_grad_norm, Adam, LrSchedule, NonFiniteGradError, Optimizer, Sgd};
/// The LayerNorm variance guard, re-exported from the kernel it guards.
pub use seqfm_tensor::ew::LN_EPS;
