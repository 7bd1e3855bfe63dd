#![warn(missing_docs)]

//! # seqfm-autograd
//!
//! Tape-based reverse-mode automatic differentiation over
//! [`seqfm_tensor::Tensor`] values — the substrate that lets this workspace
//! train SeqFM and its eleven baselines without an external deep-learning
//! framework.
//!
//! ## Design
//!
//! * **Define-by-run**: a [`Graph`] is rebuilt per mini-batch; each op
//!   executes eagerly and records a node. [`Graph::backward`] sweeps the tape
//!   in reverse.
//! * **Parameters live outside the tape** in a [`ParamStore`]. Small dense
//!   parameters enter graphs as copied leaves ([`Graph::param`]); large
//!   embedding tables are accessed through [`Graph::gather`], whose backward
//!   scatter-adds only the touched rows — mirroring how FM-style models are
//!   trained in practice (sparse "lazy" updates, see `seqfm-nn::optim`).
//! * **Ops**: elementwise arithmetic and activations, `add_bias`;
//!   [`Graph::matmul`] (a rank-3 lhs is read as its rows — projections need
//!   no flatten copies), `matmul_nt`, `bmm`, `bmm_nt`, `lmatmul`, `row_dot`;
//!   `softmax`, `layer_norm`, `dropout`, and the two structured attention
//!   nodes of the paper's masked views — [`Graph::attention_causal`] (the
//!   dynamic view) and [`Graph::attention_cross`] (the cross view), each
//!   bit-identical to `bmm_nt → scale → softmax(+ M) → bmm` under its
//!   additive mask `M` without forming a masked score (no op takes a mask);
//!   reshape / concat / slice / select / broadcast; reductions;
//!   `bce_with_logits`.
//! * **Every op is gradient-checked** against central finite differences (see
//!   [`gradcheck`] and this crate's test-suite).
//! * **Inference freezes the store**: [`ParamStore::freeze`] snapshots all
//!   values into an immutable, `Arc`-shareable [`FrozenParams`] that serving
//!   threads read without graphs, gradients, or locks.
//!
//! ## Example
//!
//! ```
//! use seqfm_autograd::{Graph, ParamStore};
//! use seqfm_tensor::{Shape, Tensor};
//!
//! let mut ps = ParamStore::new();
//! let w = ps.add_dense("w", Tensor::from_vec(Shape::d2(2, 1), vec![0.5, -0.5]));
//!
//! let mut g = Graph::new();
//! let x = g.input(Tensor::from_vec(Shape::d2(3, 2), vec![1., 2., 3., 4., 5., 6.]));
//! let wv = g.param(&ps, w);
//! let y = g.matmul(x, wv);          // [3,1]
//! let loss = g.mean_all(y);
//! g.backward(loss, &mut ps);
//! assert_eq!(ps.grad(w).shape(), Shape::d2(2, 1));
//! ```

mod backward;
mod frozen;
mod graph;
mod op;
mod store;

pub mod gradcheck;

pub use frozen::{FrozenId, FrozenParams, ModelEpoch};
pub use gradcheck::{assert_grad_check, grad_check, GradCheckReport};
pub use graph::{Graph, Var};
pub use store::{Param, ParamId, ParamKind, ParamStore};

#[cfg(test)]
mod tests;
