#![warn(missing_docs)]

//! # seqfm-repro
//!
//! Umbrella crate for the SeqFM reproduction workspace (ICDE 2020,
//! *Sequence-Aware Factorization Machines for Temporal Predictive
//! Analytics*). It re-exports the member crates so downstream users can
//! depend on a single crate, and hosts the runnable examples
//! (`examples/`) and cross-crate integration tests (`tests/`).
//!
//! Crate map:
//!
//! * [`parallel`] — the parallelism subsystem: one mutex-and-condvar queue
//!   under a scoped thread pool and the engine's bounded admission channel,
//!   `par_units` slice fan-out, reusable oneshots
//! * [`tensor`] — dense f32 tensors and kernels (matmul/bmm/softmax/…),
//!   auto-parallel above a size threshold
//! * [`autograd`] — tape-based reverse-mode autodiff
//! * [`nn`] — layers, optimizers, initializers, checkpoints
//! * [`data`] — synthetic chronological datasets + evaluation protocol
//! * [`metrics`] — HR/NDCG, AUC/RMSE, MAE/RRSE
//! * [`core`] — **SeqFM** (the paper's model), trainers, evaluators, and the
//!   graph-free `Scorer`/`FrozenSeqFm` inference API
//! * [`baselines`] — all 11 comparison models
//! * [`retrieval`] — full-catalog top-K: blocked catalog scans with a
//!   sound upper-bound prune, bit-identical to brute force
//! * [`serve`] — request-level serving: candidate expansion, top-K ranking,
//!   and the multi-threaded scoring engine
//! * [`bench_harness`] — the table/figure regeneration harness

pub use seqfm_autograd as autograd;
pub use seqfm_baselines as baselines;
pub use seqfm_bench as bench_harness;
pub use seqfm_core as core;
pub use seqfm_data as data;
pub use seqfm_metrics as metrics;
pub use seqfm_nn as nn;
pub use seqfm_parallel as parallel;
pub use seqfm_retrieval as retrieval;
pub use seqfm_serve as serve;
pub use seqfm_tensor as tensor;
