//! Fused scaled-dot-product attention over raw slices — the kernels behind
//! the frozen forward pass *and* the tape's structured attention nodes.
//!
//! Every *output element* of the kernels here runs the same chain of
//! floating-point operations, in the same order, as the tape ops
//! `bmm_nt → scale → softmax → bmm` — so a frozen forward pass that uses
//! them reproduces `Graph`-built logits bit for bit (there is no second,
//! approximate family: both serving profiles call these). The dense,
//! unmasked [`attention_into`] — the static view (Eq. 8) — gets there by
//! replaying the tape's ops wholesale. The two masked views are structural
//! instead of masked: the paper writes each as an additive `−∞` mask, but a
//! blocked score adds an exact `+0.0` to its row's softmax sum and leaves an
//! exact `0.0` weight that every `nn` / `tn` chain skips, so the kernels
//! never use one. The causal kernels — [`attention_causal_into`] and its
//! backward [`attention_causal_backward_into`], the dynamic view (Eq. 9–10)
//! and what `Graph::attention_causal` records — keep only the lower
//! triangle `j ≤ i`. The cross-view kernels —
//! [`attention_cross_shared_into`] for one history under many candidates,
//! [`attention_cross_rows_into`] and its backward
//! [`attention_cross_rows_backward_into`] for a history per row, which is
//! what `Graph::attention_cross` records — score only the static↔history
//! pairs. The shared-history kernel also runs each chain *once*: a chain's
//! bits do not depend on the slice it is computed for, so whatever involves
//! only the history and the static rows every slice shares (a request's
//! user row) is a per-call prelude, and a slice pays for its own rows
//! alone. The dense masked pipeline these are bit-identical to lives on as
//! the tests' reference oracle (`testutil::attention_masked_into` and its
//! backward). The caller provides the output and scratch buffers, so
//! repeated calls allocate nothing. Above the dispatch threshold the batch
//! dimension fans out over the global thread pool — per-slice arithmetic is
//! untouched, so the bit-for-bit guarantee survives parallel execution.

use super::bmm::{bmm_nn_into, bmm_nt_into};
use super::matmul::{by_rows, chain_tile};
use super::softmax::softmax_row_inplace;
use std::convert::Infallible;

/// `out[b,n,d] = softmax(scale · Q·Kᵀ) · V` per batch slice — plain,
/// unmasked attention (the static view, Eq. 8).
///
/// `q`/`k`/`v` are `[bs, n, d]` row-major slices; `scores` is a scratch
/// buffer of at least `bs·n·n` elements (overwritten with the attention
/// weights); `out` must hold at least `bs·n·d` elements and is overwritten
/// (not accumulated).
///
/// `_unmasked` can only be `None`: no view runs a masked dense attention
/// (the dynamic view is [`attention_causal_into`], the cross view
/// [`attention_cross_rows_into`] / [`attention_cross_shared_into`]). The
/// slot keeps the ten-argument signature that existing callers — the repo
/// benchmark's `tensor.attention_us` probe among them — pass `None` through.
///
/// # Panics
/// Panics if any buffer is too small.
#[allow(clippy::too_many_arguments)]
pub fn attention_into(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    _unmasked: Option<Infallible>,
    scale: f32,
    bs: usize,
    n: usize,
    d: usize,
    scores: &mut [f32],
    out: &mut [f32],
) {
    assert!(q.len() >= bs * n * d, "attention_into: q too small");
    assert!(k.len() >= bs * n * d, "attention_into: k too small");
    assert!(v.len() >= bs * n * d, "attention_into: v too small");
    assert!(scores.len() >= bs * n * n, "attention_into: scores scratch too small");
    assert!(out.len() >= bs * n * d, "attention_into: out too small");
    let (q, k, v) = (&q[..bs * n * d], &k[..bs * n * d], &v[..bs * n * d]);
    let scores = &mut scores[..bs * n * n];
    let out = &mut out[..bs * n * d];

    // ~2 multiply-add passes of n·n·d plus the softmax per slice.
    let work_per_slice = 2 * n * n * d + 16 * n * n;
    if super::dispatch::should_par(bs * work_per_slice, bs) {
        seqfm_parallel::par_units(
            seqfm_parallel::global(),
            [scores, out],
            [n * n, n * d],
            |b0, [scores_chunk, out_chunk]| {
                let slices = scores_chunk.len() / (n * n);
                let q = &q[b0 * n * d..(b0 + slices) * n * d];
                let k = &k[b0 * n * d..(b0 + slices) * n * d];
                let v = &v[b0 * n * d..(b0 + slices) * n * d];
                attention_slices(q, k, v, scale, [slices, n, d], scores_chunk, out_chunk);
            },
        );
    } else {
        attention_slices(q, k, v, scale, [bs, n, d], scores, out);
    }
}

/// The fused attention pipeline over `bs` batch slices — exactly the serial
/// op order (`Q·Kᵀ → scale → softmax → ·V`), used both as the serial path
/// and as each parallel task's body.
fn attention_slices(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    scale: f32,
    [bs, n, d]: [usize; 3],
    scores: &mut [f32],
    out: &mut [f32],
) {
    // Q·Kᵀ, then the 1/√d scale — same op order as the tape.
    scores.fill(0.0);
    bmm_nt_into(q, k, scores, bs, n, d, n);
    for s in scores.iter_mut() {
        *s *= scale;
    }
    for row in scores.chunks_exact_mut(n) {
        softmax_row_inplace(row);
    }
    // Attention-weighted values.
    out.fill(0.0);
    bmm_nn_into(scores, v, out, bs, n, n, d);
}

/// Causal self-attention — the dynamic view (paper Eq. 9–10) — over
/// `[bs, n, d]` slices `q`/`k`/`v`: row `i` attends to columns `j ≤ i` only,
/// and only those `n·(n + 1)/2` of the `n²` scores per slice are kept,
/// softmaxed and used. What `Graph::attention_causal` records and the frozen
/// forward's history stage runs.
///
/// Per row `i`, the `i + 1` live scores run with their lanes across key
/// columns, from a transposed pack of the slice's `K` (a row pair's tile
/// rounds its live columns up to a whole 8-lane block; the few products
/// above the diagonal that this forms are dropped in registers); the row is
/// softmaxed in place, then its context is accumulated over ascending `j`
/// with the zero-weight skip. `weights` receives the packed lower triangle —
/// `n·(n + 1)/2` floats per slice, row `i` at offset `i·(i + 1)/2` — which
/// is everything [`attention_causal_backward_into`] needs from the forward
/// pass; `out` is overwritten with the `[bs, n, d]` context.
///
/// **Bit-identical** to the dense pipeline under the additive causal mask
/// (`bmm_nt → scale → softmax(+ M) → bmm`, the tape's old chain and the
/// tests' oracle) whenever `q`, `k`, `v` are finite, because every output
/// element runs that pipeline's own chain: a score is
/// `(0.0 + Σ_{p↑} q[p]·k[p]) · scale` with separate multiply and add; the
/// softmax is `softmax_row_inplace` over the live prefix (a masked score is
/// `−∞`: never the row max, an exact `+0.0` added to the non-negative sum
/// after every live term, an exact `0.0` weight); and a context element is
/// the seeded-zero ascending-`j` chain `o += w·v` skipping `w == 0.0`
/// (`matmul::naive::matmul_nn_into`'s chain — the masked weights are the
/// trailing zeros it skips).
///
/// **A future position cannot poison a row.** The dense pipeline forms the
/// masked scores too: a NaN or `±∞` in `k[j]` makes every score of column
/// `j` NaN after the mask is added (`NaN + (−∞)`, `∞ + (−∞)`), and with it
/// every row `i < j` — here row `i`'s weights and context depend on rows
/// `0..=i` of `q`, `k`, `v` alone, so a non-finite value at a *future*
/// position `j > i` leaves them untouched (the backward's `0 · ∞` likewise;
/// see [`attention_causal_backward_into`]).
///
/// # Panics
/// Panics if any buffer is too small.
pub fn attention_causal_into(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    scale: f32,
    [bs, n, d]: [usize; 3],
    weights: &mut [f32],
    out: &mut [f32],
) {
    const NAME: &str = "attention_causal_into";
    let tri_n = tri(n);
    for x in [q, k, v] {
        assert!(x.len() >= bs * n * d, "{NAME}: Q/K/V operand too small");
    }
    assert!(weights.len() >= bs * tri_n, "{NAME}: weights too small");
    assert!(out.len() >= bs * n * d, "{NAME}: out too small");
    let qkv = [q, k, v].map(|x| &x[..bs * n * d]);
    let weights = &mut weights[..bs * tri_n];
    let out = &mut out[..bs * n * d];

    // The scores and the context: one multiply-add pass of the triangle
    // each, plus the exp-weighted softmax.
    let work_per_slice = tri_n * (2 * d + 16);
    if super::dispatch::should_par(bs * work_per_slice, bs) {
        seqfm_parallel::par_units(
            seqfm_parallel::global(),
            [weights, out],
            [tri_n, n * d],
            |b0, [weights_chunk, out_chunk]| {
                let slices = out_chunk.len() / (n * d);
                let qkv = qkv.map(|x| &x[b0 * n * d..(b0 + slices) * n * d]);
                causal_slices(qkv, scale, [slices, n, d], weights_chunk, out_chunk);
            },
        );
    } else {
        causal_slices(qkv, scale, [bs, n, d], weights, out);
    }
}

/// Serial body of [`attention_causal_into`] over `bs` slices.
fn causal_slices(
    [q, k, v]: [&[f32]; 3],
    scale: f32,
    [bs, n, d]: [usize; 3],
    weights: &mut [f32],
    out: &mut [f32],
) {
    let tri_n = tri(n);
    crate::workspace::with_thread(|ws| {
        let mut kt = ws.take(d * n);
        for b in 0..bs {
            let slice = b * n * d..(b + 1) * n * d;
            let (q, k, v) = (&q[slice.clone()], &k[slice.clone()], &v[slice.clone()]);
            let w = &mut weights[b * tri_n..(b + 1) * tri_n];
            pack_transposed(k, n, d, &mut kt);
            lower_chains(q, &kt, [n, d], |i, j0, acc| {
                for (slot, &a) in w[tri(i) + j0..].iter_mut().zip(acc) {
                    *slot = (0.0 + a) * scale;
                }
            });
            for i in 0..n {
                softmax_row_inplace(&mut w[tri(i)..tri(i + 1)]);
            }
            let out = &mut out[slice];
            out.fill(0.0);
            lower_rows_add(w, v, [n, d], out);
        }
    });
}

/// Backward pass of [`attention_causal_into`]: given the forward's
/// `q`/`k`/`v`, its saved packed `weights` and the upstream gradient `d_out`
/// of the context, **adds** the gradients into `dq`/`dk`/`dv` (pass zeroed
/// buffers for plain gradients). Only the lower triangle is used —
/// `4·d` multiply-adds per live pair where the dense tape spends `4·d` per
/// pair of all `n²`.
///
/// **Bit-identical** to the dense tape's backward through
/// `bmm → softmax(+ M) → scale → bmm_nt` whenever `q`, `k`, `v` and `d_out`
/// are finite, because every gradient element runs that tape's own chain
/// minus terms that are exact zeros there: `dA[i,j] = 0.0 + Σ_{t↑}
/// dO[i,t]·V[j,t]` on the live prefix (lanes across `j`, from a transposed
/// pack of `V`); per row `dot = Σ_{j↑} A[i,j]·dA[i,j]` and
/// `dS = (A·(dA − dot))·scale` (`softmax_backward_into`, then the scale
/// node); then `dQ[i] += dS[i,j]·K[j]` over ascending `j ≤ i`, and
/// `dK[j] += dS[i,j]·Q[i]`, `dV[j] += A[i,j]·dO[i]` over ascending `i ≥ j`,
/// each from a zero seed and skipping a zero multiplier as
/// `matmul::naive`'s `nn` / `tn` chains do. A masked weight is exactly
/// `0.0`, so the dense path skips its term (or adds `±0` to `dot`, which
/// can at most flip the sign of a zero `dS` that is then skipped). A
/// non-finite `v[j]` at a future position `j > i` never reaches row `i`'s
/// `dS` or `dQ`: the dense path's `0 · ∞` in `dot` would make them NaN.
///
/// # Panics
/// Panics if any buffer is too small.
pub fn attention_causal_backward_into(
    qkv: [&[f32]; 3],
    weights: &[f32],
    d_out: &[f32],
    scale: f32,
    [bs, n, d]: [usize; 3],
    grads: [&mut [f32]; 3],
) {
    const NAME: &str = "attention_causal_backward_into";
    let tri_n = tri(n);
    for x in qkv.iter().chain([&d_out]) {
        assert!(x.len() >= bs * n * d, "{NAME}: operand too small");
    }
    assert!(weights.len() >= bs * tri_n, "{NAME}: weights too small");
    let grads = grads.map(|g| {
        assert!(g.len() >= bs * n * d, "{NAME}: gradient buffer too small");
        &mut g[..bs * n * d]
    });

    let work_per_slice = 4 * tri_n * d;
    if super::dispatch::should_par(bs * work_per_slice, bs) {
        seqfm_parallel::par_units(seqfm_parallel::global(), grads, [n * d; 3], |b0, grads| {
            let slices = grads[0].len() / (n * d);
            causal_backward_slices(
                qkv.map(|x| &x[b0 * n * d..]),
                &weights[b0 * tri_n..],
                &d_out[b0 * n * d..],
                scale,
                [slices, n, d],
                grads,
            );
        });
    } else {
        causal_backward_slices(qkv, weights, d_out, scale, [bs, n, d], grads);
    }
}

/// Serial body of [`attention_causal_backward_into`] over `bs` slices.
fn causal_backward_slices(
    [q, k, v]: [&[f32]; 3],
    weights: &[f32],
    d_out: &[f32],
    scale: f32,
    [bs, n, d]: [usize; 3],
    [dq, dk, dv]: [&mut [f32]; 3],
) {
    let tri_n = tri(n);
    crate::workspace::with_thread(|ws| {
        let mut vt = ws.take(d * n);
        let mut ds = ws.take(tri_n);
        for b in 0..bs {
            let slice = b * n * d..(b + 1) * n * d;
            let (q, k, v, d_out) =
                (&q[slice.clone()], &k[slice.clone()], &v[slice.clone()], &d_out[slice.clone()]);
            let (dq, dk, dv) = (&mut dq[slice.clone()], &mut dk[slice.clone()], &mut dv[slice]);
            let w = &weights[b * tri_n..(b + 1) * tri_n];
            pack_transposed(v, n, d, &mut vt);
            lower_chains(d_out, &vt, [n, d], |i, j0, acc| {
                for (slot, &a) in ds[tri(i) + j0..].iter_mut().zip(acc) {
                    *slot = 0.0 + a;
                }
            });
            for i in 0..n {
                let row = tri(i)..tri(i + 1);
                softmax_scale_backward_inplace(&w[row.clone()], &mut ds[row], i + 1, scale);
            }
            lower_rows_add(&ds, k, [n, d], dq);
            // `dK[j]` / `dV[j]` over ascending `i ≥ j`: the row loop outside,
            // so consecutive updates land on different rows `j` here too.
            for (i, (qi, doi)) in q.chunks_exact(d).zip(d_out.chunks_exact(d)).enumerate() {
                let row = tri(i)..tri(i + 1);
                let cols = dk.chunks_exact_mut(d).zip(dv.chunks_exact_mut(d));
                for ((&s, &a), (dkj, dvj)) in ds[row.clone()].iter().zip(&w[row]).zip(cols) {
                    axpy_skip(dkj, s, qi);
                    axpy_skip(dvj, a, doi);
                }
            }
        }
    });
}

/// `n·(n + 1)/2`: the size of an `n`-row packed lower triangle, and the
/// offset of its row `n`.
#[inline(always)]
fn tri(n: usize) -> usize {
    n * (n + 1) / 2
}

/// `acc[i] += Σ_{j ≤ i} w[i,j] · x[j]` over the packed lower triangle `w`
/// and row-major `x` / `acc` (`[n, d]`): each row of `acc` is the `nn`
/// chain over ascending `j` with the zero skip ([`axpy_skip`]). The column
/// loop is the outer one, so consecutive updates land on different rows
/// and none waits for the previous one's store.
#[inline(always)]
fn lower_rows_add(w: &[f32], x: &[f32], [n, d]: [usize; 2], acc: &mut [f32]) {
    for (j, xj) in x.chunks_exact(d).enumerate().take(n) {
        for (i, acc_i) in acc.chunks_exact_mut(d).enumerate().take(n).skip(j) {
            axpy_skip(acc_i, w[tri(i) + j], xj);
        }
    }
}

/// The lower triangle `j ≤ i` of the `[n, n]` product of row-major `a`
/// (`[n, d]`) and the transposed pack `bt` (`[d, n]`), handed to
/// `store(i, j0, lanes)` like [`nn_chains`] — whose two-row tiles it runs
/// over each row pair's live columns rounded up to a whole 8-lane block
/// (capped at `n`), storing only the lanes `j ≤ i`. A tile's cost is its
/// `d`-step add chain whatever its width, so the few scores formed above
/// the diagonal and dropped cost less than the one-column tiles an exact
/// ragged edge would need. The `nt` score chain: no zero skip.
#[inline(always)]
fn lower_chains(
    a: &[f32],
    bt: &[f32],
    [n, d]: [usize; 2],
    mut store: impl FnMut(usize, usize, &[f32]),
) {
    for i0 in (0..n).step_by(2) {
        let rows = (n - i0).min(2);
        let cols = (i0 + rows).next_multiple_of(8).min(n);
        nn_chains::<false>(&a[i0 * d..], d, rows, bt, n, cols, d, |r, j0, acc| {
            let i = i0 + r;
            store(i, j0, &acc[..acc.len().min((i + 1).saturating_sub(j0))]);
        });
    }
}

/// Exact cross-view attention for a **shared history**: every slice shares
/// one `[nd, d]` block of history-row Q/K/V (`hist`) under its `ns = ns0 + ns1`
/// static rows, and only the static↔history pairs the cross mask admits
/// are ever scored — each static row softmaxes over the `nd` history columns,
/// each history row over the `ns` static columns. At serving geometry
/// (`ns = 2`, `nd = 20`) that is 80 of the 484 scores per slice the dense
/// masked pipeline computes, and none of its `3·bs·nd·d` splice
/// copies.
///
/// **The static side comes in two parts**, because a candidate-expansion
/// request repeats its user row under every candidate: `shared` holds the
/// `[ns0, d]` Q/K/V of the static rows *every* slice leads with, `own` the
/// `[bs, ns1, d]` rows each slice adds (`ns0 = 0` is "nothing shared": every
/// slice brings all its rows). With the history shared as well, everything
/// the leading rows take part in is the same for every slice up to the
/// history rows' softmax, so it is computed once per call (per worker chunk
/// when the batch fans out — each chunk packs and preludes in its own
/// thread arena; bits are equal either way): the shared rows' whole
/// attention over the history — scores, softmax, context, `ns0` output rows
/// copied into each slice — and the `[nd, ns0]` scaled scores of every
/// history row against the shared columns. Per slice that leaves the `ns1`
/// own rows' attention, the `nd·ns1` fresh history-row scores, and each
/// history row's softmax and context. **The `exp` of a history row is not
/// hoisted**: its row maximum runs over the slice's own columns too, so
/// `exp(score − max)` differs per slice even for a shared column; the shared
/// *scores* are filled back in before every row softmax instead.
///
/// **Bit-identical** to splicing the shared rows and the history into every
/// slice and running the dense pipeline under the cross mask (the tests'
/// oracle, `testutil::attention_masked_into` with `testutil::cross_mask`),
/// because every output element runs the dense pipeline's own op chain: a
/// score is `(0.0 + Σ_{p↑} q[p]·k[p]) · scale` with separate multiply and add
/// (`matmul::naive::matmul_nt_into`'s chain; f32 multiplication commutes,
/// so which operand the lanes run along is free); the softmax is
/// `softmax_row_inplace` over the admitted entries in ascending column
/// order (a blocked entry is `−∞`: never the row max, and exactly `+0.0`
/// added to a non-negative running sum); and a context element is the
/// seeded-zero ascending-`j` chain `o += w·v` that skips `w == 0.0`
/// (`matmul::naive::matmul_nn_into`'s chain — blocked weights are exactly
/// zero, so the dense path skips them too). A chain does not depend on
/// which slice it is computed for, so the chains a shared row runs once
/// here are the ones the dense path runs `bs` times. Lanes run *across* history
/// columns from transposed packs of the shared `kh`/`qh`; each lane is
/// still one ascending chain, so SIMD width and worker count cannot change
/// a bit.
///
/// **Blocked pairs are never formed, so they cannot poison a row.** The
/// dense path adds the mask to *every* score: a blocked score that is NaN
/// or `+∞` (a non-finite Q/K row, or `|q·k|` overflowing f32) becomes NaN
/// and takes its whole dense row with it, while a structured row depends on
/// its admitted pairs alone. Bit-identity with the dense pipeline therefore
/// holds whenever blocked-pair scores are finite — always, for finite
/// parameters of sane magnitude. Nothing in the model still runs a dense
/// cross view (the tape's node is [`attention_cross_rows_into`], this
/// kernel's per-row sibling over the same tiles), so graph and frozen
/// forwards agree on non-finite inputs by construction; the dense pipeline
/// is the reference the tests compare against.
///
/// `out` is the full interleaved `[bs, ns + nd, d]` context, shared rows
/// first; `scores` needs `ns·nd` slots per slice (≥ `bs·ns·nd`) of scratch
/// that must not be read back. An empty side means every row is fully
/// masked: all-zero context.
///
/// # Panics
/// Panics if any buffer is too small.
pub fn attention_cross_shared_into(
    shared: [&[f32]; 3],
    own: [&[f32]; 3],
    hist: [&[f32]; 3],
    scale: f32,
    [bs, ns0, ns1, nd, d]: [usize; 5],
    scores: &mut [f32],
    out: &mut [f32],
) {
    const NAME: &str = "attention_cross_shared_into";
    let ns = ns0 + ns1;
    let n = ns + nd;
    for (side, len, what) in
        [(shared, ns0 * d, "shared"), (own, bs * ns1 * d, "own"), (hist, nd * d, "hist")]
    {
        for x in side {
            assert!(x.len() >= len, "{NAME}: {what} Q/K/V operand too small");
        }
    }
    assert!(scores.len() >= bs * ns * nd, "{NAME}: scores scratch too small");
    assert!(out.len() >= bs * n * d, "{NAME}: out too small");
    let out = &mut out[..bs * n * d];
    if bs == 0 || ns == 0 || nd == 0 {
        // One side empty ⇒ every row is fully masked ⇒ all-zero context
        // (exactly what the dense masked pipeline produces).
        out.fill(0.0);
        return;
    }
    let shared = shared.map(|x| &x[..ns0 * d]);
    let own = own.map(|x| &x[..bs * ns1 * d]);
    let hist = hist.map(|x| &x[..nd * d]);
    let scores = &mut scores[..bs * ns * nd];

    // Per slice: ns1·nd fresh scores in each admitted block, the own rows'
    // weighted value sum over nd columns and the history rows' over all ns,
    // plus the exp-weighted softmax ops of both blocks.
    let work_per_slice = (3 * ns1 + ns) * nd * d + 32 * ns * nd;
    if super::dispatch::should_par(bs * work_per_slice, bs) {
        seqfm_parallel::par_units(
            seqfm_parallel::global(),
            [scores, out],
            [ns * nd, n * d],
            |b0, [scores_chunk, out_chunk]| {
                let slices = scores_chunk.len() / (ns * nd);
                let own = own.map(|x| &x[b0 * ns1 * d..(b0 + slices) * ns1 * d]);
                let dims = [slices, ns0, ns1, nd, d];
                cross_shared_slices(shared, own, hist, scale, dims, scores_chunk, out_chunk);
            },
        );
    } else {
        cross_shared_slices(shared, own, hist, scale, [bs, ns0, ns1, nd, d], scores, out);
    }
}

/// Serial body of [`attention_cross_shared_into`] over `bs` slices: the
/// transposed history packs and the shared rows' prelude once, then each
/// slice's own part of the two admitted blocks, the `ns·nd` score scratch
/// reused between them.
fn cross_shared_slices(
    [q0, k0, v0]: [&[f32]; 3],
    [q1, k1, v1]: [&[f32]; 3],
    [qh, kh, vh]: [&[f32]; 3],
    scale: f32,
    [bs, ns0, ns1, nd, d]: [usize; 5],
    scores: &mut [f32],
    out: &mut [f32],
) {
    let ns = ns0 + ns1;
    let n = ns + nd;
    crate::workspace::with_thread(|ws| {
        let mut kht = ws.take(d * nd);
        let mut qht = ws.take(d * nd);
        pack_transposed(kh, nd, d, &mut kht);
        pack_transposed(qh, nd, d, &mut qht);

        // The prelude: the shared rows' context, their `[nd, ns0]` score
        // columns, and a `[ns, d]` value block whose leading rows they fill
        // for good (a slice copies its own rows in underneath).
        let mut ctx0 = ws.take(ns0 * d);
        let mut cols0 = ws.take(nd * ns0);
        let mut sv = ws.take(ns * d);
        static_rows_attend(q0, &kht, vh, scale, [ns0, nd, d], &mut scores[..ns0 * nd], &mut ctx0);
        history_rows_score(k0, &qht, scale, [ns0, nd, d], &mut cols0, ns0);
        sv[..ns0 * d].copy_from_slice(v0);

        for b in 0..bs {
            let own = b * ns1 * d..(b + 1) * ns1 * d;
            let (out_stat, out_dyn) = out[b * n * d..(b + 1) * n * d].split_at_mut(ns * d);
            let w = &mut scores[b * ns * nd..(b + 1) * ns * nd];

            let (out_shared, out_own) = out_stat.split_at_mut(ns0 * d);
            out_shared.copy_from_slice(&ctx0);
            let w_own = &mut w[..ns1 * nd];
            static_rows_attend(&q1[own.clone()], &kht, vh, scale, [ns1, nd, d], w_own, out_own);

            for r in 0..nd {
                w[r * ns..r * ns + ns0].copy_from_slice(&cols0[r * ns0..(r + 1) * ns0]);
            }
            history_rows_score(&k1[own.clone()], &qht, scale, [ns1, nd, d], &mut w[ns0..], ns);
            sv[ns0 * d..].copy_from_slice(&v1[own]);
            history_rows_finish(&sv, [ns, nd, d], w, out_dyn);
        }
    });
}

/// Exact cross-view attention over **per-row histories** — the training
/// batch shape, and what the autograd tape's cross-attention node runs: the
/// per-slice sibling of [`attention_cross_shared_into`], with the same two
/// admitted blocks through the same tiles, so it is bit-identical to the
/// dense masked pipeline under the same finite-blocked-score contract.
///
/// Slice `b`'s `[ns, d]` static Q/K/V rows start at `b · stat_stride` in
/// `stat`, its `[nd, d]` history rows at `b · hist_stride` in `hist`. An
/// interleaved `[bs, ns + nd, d]` projection `x` (the tape's) is passed as
/// `x` and `&x[ns·d..]`, both strided `(ns + nd)·d`; separately projected
/// blocks (the frozen forward's) are strided by their own `ns·d` / `nd·d`.
/// The transposed history packs are rebuilt per slice (the price of a
/// history per row).
///
/// `out` is the interleaved `[bs, ns + nd, d]` context. `weights` receives
/// `2·ns·nd` floats per slice — the static rows' `[ns, nd]` softmax block,
/// then the history rows' `[nd, ns]` one — which is everything
/// [`attention_cross_rows_backward_into`] needs from the forward pass. An
/// empty side means every row is fully masked: all-zero context, no
/// weights.
///
/// # Panics
/// Panics if any buffer is too small.
#[allow(clippy::too_many_arguments)]
pub fn attention_cross_rows_into(
    stat: [&[f32]; 3],
    stat_stride: usize,
    hist: [&[f32]; 3],
    hist_stride: usize,
    scale: f32,
    [bs, ns, nd, d]: [usize; 4],
    weights: &mut [f32],
    out: &mut [f32],
) {
    const NAME: &str = "attention_cross_rows_into";
    let n = ns + nd;
    assert!(out.len() >= bs * n * d, "{NAME}: out too small");
    let out = &mut out[..bs * n * d];
    if bs == 0 || ns == 0 || nd == 0 {
        out.fill(0.0);
        return;
    }
    for (side, block, stride) in [(stat, ns * d, stat_stride), (hist, nd * d, hist_stride)] {
        for x in side {
            assert!(x.len() >= (bs - 1) * stride + block, "{NAME}: Q/K/V operand too small");
        }
    }
    assert!(weights.len() >= bs * 2 * ns * nd, "{NAME}: weights too small");
    let weights = &mut weights[..bs * 2 * ns * nd];

    let work_per_slice = 4 * ns * nd * d + 32 * ns * nd;
    if super::dispatch::should_par(bs * work_per_slice, bs) {
        seqfm_parallel::par_units(
            seqfm_parallel::global(),
            [weights, out],
            [2 * ns * nd, n * d],
            |b0, [weights_chunk, out_chunk]| {
                let slices = out_chunk.len() / (n * d);
                cross_rows_slices(
                    stat.map(|x| &x[b0 * stat_stride..]),
                    stat_stride,
                    hist.map(|x| &x[b0 * hist_stride..]),
                    hist_stride,
                    scale,
                    [slices, ns, nd, d],
                    weights_chunk,
                    out_chunk,
                );
            },
        );
    } else {
        cross_rows_slices(
            stat,
            stat_stride,
            hist,
            hist_stride,
            scale,
            [bs, ns, nd, d],
            weights,
            out,
        );
    }
}

/// Serial body of [`attention_cross_rows_into`] over `bs` slices.
#[allow(clippy::too_many_arguments)]
fn cross_rows_slices(
    stat: [&[f32]; 3],
    stat_stride: usize,
    hist: [&[f32]; 3],
    hist_stride: usize,
    scale: f32,
    [bs, ns, nd, d]: [usize; 4],
    weights: &mut [f32],
    out: &mut [f32],
) {
    let n = ns + nd;
    crate::workspace::with_thread(|ws| {
        let mut kht = ws.take(d * nd);
        let mut qht = ws.take(d * nd);
        for b in 0..bs {
            let [sq, sk, sv] = stat.map(|x| &x[b * stat_stride..][..ns * d]);
            let [hq, hk, hv] = hist.map(|x| &x[b * hist_stride..][..nd * d]);
            let (out_stat, out_dyn) = out[b * n * d..(b + 1) * n * d].split_at_mut(ns * d);
            let (w_stat, w_hist) =
                weights[b * 2 * ns * nd..(b + 1) * 2 * ns * nd].split_at_mut(ns * nd);
            pack_transposed(hk, nd, d, &mut kht);
            pack_transposed(hq, nd, d, &mut qht);
            static_rows_attend(sq, &kht, hv, scale, [ns, nd, d], w_stat, out_stat);
            history_rows_score(sk, &qht, scale, [ns, nd, d], w_hist, ns);
            history_rows_finish(sv, [ns, nd, d], w_hist, out_dyn);
        }
    });
}

/// Backward pass of [`attention_cross_rows_into`] over interleaved
/// `[bs, ns + nd, d]` operands: given the forward's `q`/`k`/`v`, its saved
/// `weights` and the upstream gradient `d_out` of the context, **adds** the
/// gradients into `dq`/`dk`/`dv` (pass zeroed buffers for plain gradients).
/// Only admitted pairs are touched — `8·ns·nd·d` multiply-adds per slice
/// where the dense tape spends `4·n²·d`.
///
/// **Bit-identical** to the dense tape's backward through
/// `bmm → softmax(+ M) → scale → bmm_nt` under the cross mask, because every gradient
/// element runs that tape's own chain minus terms that are exact zeros
/// there: `dA[i,j] = 0.0 + Σ_{t↑} dO[i,t]·V[j,t]` (`nt`); per row
/// `dot = Σ_{j↑} A[i,j]·dA[i,j]` and `dS = (A·(dA − dot))·scale`
/// (`softmax_backward_into`, then the scale node); then `dQ[i] += dS[i,j]·K[j]`
/// over ascending `j`, `dK[j] += dS[i,j]·Q[i]` and `dV[j] += A[i,j]·dO[i]`
/// over ascending `i`, each from a zero seed and skipping a zero multiplier
/// as `matmul::naive`'s `nn` / `tn` chains do. A blocked weight is exactly
/// `0.0`, so the dense path skips its term (or adds `±0` to `dot`, which
/// can at most flip the sign of a zero `dS` that is then skipped).
///
/// # Panics
/// Panics if any buffer is too small.
#[allow(clippy::too_many_arguments)]
pub fn attention_cross_rows_backward_into(
    qkv: [&[f32]; 3],
    weights: &[f32],
    d_out: &[f32],
    scale: f32,
    [bs, ns, nd, d]: [usize; 4],
    grads: [&mut [f32]; 3],
) {
    const NAME: &str = "attention_cross_rows_backward_into";
    let n = ns + nd;
    if ns == 0 || nd == 0 {
        return; // every row fully masked: all-zero weights, all-zero gradients
    }
    for x in qkv.iter().chain([&d_out]) {
        assert!(x.len() >= bs * n * d, "{NAME}: operand too small");
    }
    assert!(weights.len() >= bs * 2 * ns * nd, "{NAME}: weights too small");
    let grads = grads.map(|g| {
        assert!(g.len() >= bs * n * d, "{NAME}: gradient buffer too small");
        &mut g[..bs * n * d]
    });

    let work_per_slice = 8 * ns * nd * d;
    if super::dispatch::should_par(bs * work_per_slice, bs) {
        seqfm_parallel::par_units(seqfm_parallel::global(), grads, [n * d; 3], |b0, grads| {
            let slices = grads[0].len() / (n * d);
            cross_rows_backward_slices(
                qkv.map(|x| &x[b0 * n * d..]),
                &weights[b0 * 2 * ns * nd..],
                &d_out[b0 * n * d..],
                scale,
                [slices, ns, nd, d],
                grads,
            );
        });
    } else {
        cross_rows_backward_slices(qkv, weights, d_out, scale, [bs, ns, nd, d], grads);
    }
}

/// Serial body of [`attention_cross_rows_backward_into`] over `bs` slices.
fn cross_rows_backward_slices(
    [q, k, v]: [&[f32]; 3],
    weights: &[f32],
    d_out: &[f32],
    scale: f32,
    [bs, ns, nd, d]: [usize; 4],
    [dq, dk, dv]: [&mut [f32]; 3],
) {
    let n = ns + nd;
    crate::workspace::with_thread(|ws| {
        let mut vht = ws.take(d * nd);
        let mut doht = ws.take(d * nd);
        let mut ds = ws.take(ns * nd);
        for b in 0..bs {
            let slice = b * n * d..(b + 1) * n * d;
            let (sq, hq) = q[slice.clone()].split_at(ns * d);
            let (sk, hk) = k[slice.clone()].split_at(ns * d);
            let (sv, hv) = v[slice.clone()].split_at(ns * d);
            let (do_s, do_h) = d_out[slice.clone()].split_at(ns * d);
            let (dq_s, dq_h) = dq[slice.clone()].split_at_mut(ns * d);
            let (dk_s, dk_h) = dk[slice.clone()].split_at_mut(ns * d);
            let (dv_s, dv_h) = dv[slice].split_at_mut(ns * d);
            let (w_stat, w_hist) =
                weights[b * 2 * ns * nd..(b + 1) * 2 * ns * nd].split_at(ns * nd);
            pack_transposed(hv, nd, d, &mut vht);
            pack_transposed(do_h, nd, d, &mut doht);

            // Static rows × history columns: `ds` is `[ns, nd]`.
            nn_chains::<false>(do_s, d, ns, &vht, nd, nd, d, |i, j0, acc| {
                for (slot, &a) in ds[i * nd + j0..].iter_mut().zip(acc) {
                    *slot = 0.0 + a;
                }
            });
            softmax_scale_backward_inplace(w_stat, &mut ds, nd, scale);
            for i in 0..ns {
                for j in 0..nd {
                    let (s, a) = (ds[i * nd + j], w_stat[i * nd + j]);
                    axpy_skip(&mut dq_s[i * d..(i + 1) * d], s, &hk[j * d..(j + 1) * d]);
                    axpy_skip(&mut dk_h[j * d..(j + 1) * d], s, &sq[i * d..(i + 1) * d]);
                    axpy_skip(&mut dv_h[j * d..(j + 1) * d], a, &do_s[i * d..(i + 1) * d]);
                }
            }

            // History rows × static columns: `ds` is `[nd, ns]`, its `dA`
            // formed with the lanes across history rows as in the forward.
            nn_chains::<false>(sv, d, ns, &doht, nd, nd, d, |c, r0, acc| {
                for (slot, &a) in ds[r0 * ns + c..].iter_mut().step_by(ns).zip(acc) {
                    *slot = 0.0 + a;
                }
            });
            softmax_scale_backward_inplace(w_hist, &mut ds, ns, scale);
            for r in 0..nd {
                for c in 0..ns {
                    let (s, a) = (ds[r * ns + c], w_hist[r * ns + c]);
                    axpy_skip(&mut dq_h[r * d..(r + 1) * d], s, &sk[c * d..(c + 1) * d]);
                    axpy_skip(&mut dk_s[c * d..(c + 1) * d], s, &hq[r * d..(r + 1) * d]);
                    axpy_skip(&mut dv_s[c * d..(c + 1) * d], a, &do_h[r * d..(r + 1) * d]);
                }
            }
        }
    });
}

/// `dA → dS` in place, row by row over rows of width `m`:
/// `softmax_backward_into`'s `y·(dy − Σ y·dy)` followed by the tape's
/// separate `· scale`.
fn softmax_scale_backward_inplace(w: &[f32], ds: &mut [f32], m: usize, scale: f32) {
    for (wr, dr) in w.chunks_exact(m).zip(ds.chunks_exact_mut(m)) {
        let dot: f32 = wr.iter().zip(dr.iter()).map(|(&a, &b)| a * b).sum();
        for (&a, g) in wr.iter().zip(dr.iter_mut()) {
            *g = (a * (*g - dot)) * scale;
        }
    }
}

/// One step of a `matmul::naive` `nn` / `tn` row chain: `acc += s · x`
/// (separate multiply and add), skipped when `s == 0.0`. Zipped equal-length
/// slices, so the lanes vectorise.
#[inline(always)]
fn axpy_skip(acc: &mut [f32], s: f32, x: &[f32]) {
    if s != 0.0 {
        for (a, &x) in acc.iter_mut().zip(x) {
            *a += s * x;
        }
    }
}

/// One slice's static rows attending to its history's `nd` columns: scores
/// `sq · khᵀ` (lanes across history columns, from the transposed pack
/// `kht`), the canonical row softmax, then context `w · vh`. Leaves the
/// `[ns, nd]` weight block in `w`.
#[inline(always)]
fn static_rows_attend(
    sq: &[f32],
    kht: &[f32],
    vh: &[f32],
    scale: f32,
    [ns, nd, d]: [usize; 3],
    w: &mut [f32],
    out_stat: &mut [f32],
) {
    nn_chains::<false>(sq, d, ns, kht, nd, nd, d, |i, j0, acc| {
        for (slot, &a) in w[i * nd + j0..].iter_mut().zip(acc) {
            *slot = (0.0 + a) * scale;
        }
    });
    for wrow in w.chunks_exact_mut(nd) {
        softmax_row_inplace(wrow);
    }
    nn_chains::<true>(w, nd, ns, vh, d, d, nd, |i, t0, acc| {
        out_stat[i * d + t0..][..acc.len()].copy_from_slice(acc);
    });
}

/// The scores of `nd` history rows against `ns` static columns, scaled:
/// column `c` of row `r` lands in `w[r·ldw + c]` (`ldw ≥ ns`, so the block
/// can sit inside wider rows). The lanes still run across history rows
/// (`sk · qhᵀ` from the transposed pack `qht`, the same products as
/// `qh · skᵀ`) and are stored transposed, so a history row's scores are
/// contiguous.
#[inline(always)]
fn history_rows_score(
    sk: &[f32],
    qht: &[f32],
    scale: f32,
    [ns, nd, d]: [usize; 3],
    w: &mut [f32],
    ldw: usize,
) {
    nn_chains::<false>(sk, d, ns, qht, nd, nd, d, |c, r0, acc| {
        for (slot, &a) in w[r0 * ldw + c..].iter_mut().step_by(ldw).zip(acc) {
            *slot = (0.0 + a) * scale;
        }
    });
}

/// History rows, given their `[nd, ns]` score block in `w`: one contiguous
/// canonical softmax row per history row (leaving the weight block in `w`),
/// then context `w · sv`.
#[inline(always)]
fn history_rows_finish(sv: &[f32], [ns, nd, d]: [usize; 3], w: &mut [f32], out_dyn: &mut [f32]) {
    for wrow in w.chunks_exact_mut(ns) {
        softmax_row_inplace(wrow);
    }
    nn_chains::<true>(w, ns, nd, sv, d, d, ns, |r, t0, acc| {
        out_dyn[r * d + t0..][..acc.len()].copy_from_slice(acc);
    });
}

/// `dst[p·rows + j] = src[j·d + p]`: the `[d, rows]` transpose of a
/// `[rows, d]` block, so a kernel can run its lanes across `rows`.
fn pack_transposed(src: &[f32], rows: usize, d: usize, dst: &mut [f32]) {
    for (j, row) in src.chunks_exact(d).enumerate().take(rows) {
        for (p, &x) in row.iter().enumerate() {
            dst[p * rows + j] = x;
        }
    }
}

/// The `[rows, cols]` product of row-major `a` (`[rows, depth]`) and `b`
/// (`[depth, cols]`), handed to `store(i, j0, lanes)` one run of contiguous
/// columns `j0..j0 + lanes.len()` of row `i` at a time. Each element
/// `Σ_{p↑} a[i·lda + p] · b[p·ldb + j]` is its own seeded-zero ascending-`p`
/// chain of separate multiply and add — the reference chain of
/// `matmul::naive` — and `SKIP` adds its `a == 0.0` skip (the `nn` flavour's;
/// the `nt` score chain has none). Register-tiled two rows by up to sixteen
/// columns, so the column lanes auto-vectorise (`vmulps` + `vaddps`, never
/// fused) and several chains are in flight; tiling only picks which chains
/// run together, never the order inside one.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn nn_chains<const SKIP: bool>(
    a: &[f32],
    lda: usize,
    rows: usize,
    b: &[f32],
    ldb: usize,
    cols: usize,
    depth: usize,
    mut store: impl FnMut(usize, usize, &[f32]),
) {
    let mut i0 = 0;
    while i0 < rows {
        let pair = i0 + 2 <= rows;
        let a = &a[i0 * lda..];
        let mut j0 = 0;
        while j0 < cols {
            let b = &b[j0..];
            let mut put = |r: usize, lanes: &[f32]| store(i0 + r, j0, lanes);
            // Widest lane block that still fits: 16, 8, 4, then single
            // columns for a ragged tail.
            j0 += match (pair, cols - j0) {
                (true, 16..) => zero_tile::<2, 16, SKIP>(a, lda, b, ldb, depth, &mut put),
                (true, 8..) => zero_tile::<2, 8, SKIP>(a, lda, b, ldb, depth, &mut put),
                (true, 4..) => zero_tile::<2, 4, SKIP>(a, lda, b, ldb, depth, &mut put),
                (true, _) => zero_tile::<2, 1, SKIP>(a, lda, b, ldb, depth, &mut put),
                (false, 16..) => zero_tile::<1, 16, SKIP>(a, lda, b, ldb, depth, &mut put),
                (false, 8..) => zero_tile::<1, 8, SKIP>(a, lda, b, ldb, depth, &mut put),
                (false, 4..) => zero_tile::<1, 4, SKIP>(a, lda, b, ldb, depth, &mut put),
                (false, _) => zero_tile::<1, 1, SKIP>(a, lda, b, ldb, depth, &mut put),
            };
        }
        i0 += if pair { 2 } else { 1 };
    }
}

/// One `R × L` register tile of [`nn_chains`], anchored at `a`'s first row
/// and `b`'s first column: `R·L` seeded-zero chains through the crate's one
/// inner loop ([`chain_tile`]). Returns `L`.
#[inline(always)]
fn zero_tile<const R: usize, const L: usize, const SKIP: bool>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    depth: usize,
    put: &mut impl FnMut(usize, &[f32]),
) -> usize {
    let rows = std::array::from_fn(|r| &a[r * lda..r * lda + depth]);
    let acc = chain_tile::<R, L, SKIP>([[0.0f32; L]; R], by_rows(rows), b, ldb, depth);
    for (r, acc_r) in acc.iter().enumerate() {
        put(r, acc_r);
    }
    L
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{
        attention_masked_backward_into, attention_masked_into, causal_mask, cross_mask,
        rand_tensor, softmax_lastdim_masked,
    };
    use crate::{bmm_nn, bmm_nt, ew, Shape, Tensor};

    /// `bs` packed lower triangles (`n·(n + 1)/2` per slice) as dense
    /// `[bs, n, n]` blocks with `+0.0` above the diagonal.
    fn unpack_causal(w: &[f32], bs: usize, n: usize) -> Vec<f32> {
        let mut dense = vec![0.0f32; bs * n * n];
        let mut packed = w.iter();
        for (i, row) in dense.chunks_exact_mut(n).enumerate() {
            for slot in &mut row[..=i % n] {
                *slot = *packed.next().expect("one packed weight per live pair");
            }
        }
        dense
    }

    #[test]
    fn fused_kernel_matches_unfused_ops_bitwise() {
        let (bs, n, d) = (3, 5, 4);
        let mut seed = 23;
        let q = rand_tensor(Shape::d3(bs, n, d), &mut seed);
        let k = rand_tensor(Shape::d3(bs, n, d), &mut seed);
        let v = rand_tensor(Shape::d3(bs, n, d), &mut seed);
        let scale = 1.0 / (d as f32).sqrt();
        let mask = causal_mask(n);

        // Reference: the exact op sequence the tape recorded under the mask.
        let scores = ew::scale(&bmm_nt(&q, &k), scale);
        let attn = softmax_lastdim_masked(&scores, &mask);
        let expect = bmm_nn(&attn, &v);

        // The oracle is that sequence…
        let qkv = [q.data(), k.data(), v.data()];
        let mut dense_w = vec![0.0f32; bs * n * n];
        let mut dense = vec![0.0f32; bs * n * d];
        attention_masked_into(qkv, &mask, scale, [bs, n, d], &mut dense_w, &mut dense);
        assert_eq!(dense, expect.data(), "oracle diverges from the tape ops");
        assert_eq!(dense_w, attn.data(), "oracle weights diverge");

        // …and the fused causal kernel never forms the masked half of it.
        let mut weights = vec![0.0f32; bs * n * (n + 1) / 2];
        let mut out = vec![0.0f32; bs * n * d];
        attention_causal_into(qkv[0], qkv[1], qkv[2], scale, [bs, n, d], &mut weights, &mut out);
        assert_eq!(out, expect.data(), "fused attention diverges from the tape ops");
        assert_eq!(unpack_causal(&weights, bs, n), attn.data(), "attention weights diverge");
    }

    #[test]
    fn unmasked_path_matches_too() {
        let (bs, n, d) = (2, 3, 4);
        let mut seed = 29;
        let q = rand_tensor(Shape::d3(bs, n, d), &mut seed);
        let k = rand_tensor(Shape::d3(bs, n, d), &mut seed);
        let v = rand_tensor(Shape::d3(bs, n, d), &mut seed);
        let scale = 0.5;
        let scores = ew::scale(&bmm_nt(&q, &k), scale);
        let attn = crate::softmax_lastdim(&scores);
        let expect = bmm_nn(&attn, &v);
        let mut scratch = vec![0.0f32; bs * n * n];
        let mut out = vec![0.0f32; bs * n * d];
        attention_into(q.data(), k.data(), v.data(), None, scale, bs, n, d, &mut scratch, &mut out);
        assert_eq!(out, expect.data());
    }

    #[test]
    #[should_panic(expected = "scores scratch too small")]
    fn rejects_undersized_scratch() {
        let q = vec![0.0; 8];
        let mut scratch = vec![0.0; 3];
        let mut out = vec![0.0; 8];
        attention_into(&q, &q, &q, None, 1.0, 1, 2, 4, &mut scratch, &mut out);
    }

    /// A `[bs, ns, d]` static block as the shared-history kernel takes it:
    /// slice 0's leading `ns0` rows become the rows every slice shares, and
    /// each slice keeps its rows `ns0..` as its own.
    fn split_static(s: &[f32], bs: usize, ns: usize, ns0: usize, d: usize) -> (Vec<f32>, Vec<f32>) {
        let own = (0..bs).flat_map(|b| s[(b * ns + ns0) * d..(b + 1) * ns * d].to_vec());
        (s[..ns0 * d].to_vec(), own.collect())
    }

    /// `[bs, ns0 + ns1 + nd, d]`: the shared rows `s0`, slice `b`'s own rows
    /// of `s1` and the shared `[nd, d]` block `h` spliced into every slice —
    /// the layout the dense kernels want.
    fn splice(s0: &[f32], s1: &[f32], h: &[f32], [bs, ns0, ns1, nd, d]: [usize; 5]) -> Vec<f32> {
        let mut full = Vec::new();
        for b in 0..bs {
            full.extend_from_slice(&s0[..ns0 * d]);
            full.extend_from_slice(&s1[b * ns1 * d..(b + 1) * ns1 * d]);
            full.extend_from_slice(&h[..nd * d]);
        }
        full
    }

    /// Runs the structured kernel on `[qs, ks, vs]` (`[bs, ns, d]`, split at
    /// `ns0` by [`split_static`]) × `[qh, kh, vh]`, asserts it equals splice +
    /// the dense masked oracle bit for bit, and returns the context.
    fn assert_cross_shared_exact_matches_dense(
        stat: [&[f32]; 3],
        hist: [&[f32]; 3],
        [bs, ns, nd, d]: [usize; 4],
        ns0: usize,
    ) -> Vec<f32> {
        let n = ns + nd;
        let dims = [bs, ns0, ns - ns0, nd, d];
        let scale = 1.0 / (d as f32).sqrt();
        let split = stat.map(|s| split_static(s, bs, ns, ns0, d));
        let [fq, fk, fv] = [0, 1, 2].map(|i| splice(&split[i].0, &split[i].1, hist[i], dims));
        let mut scratch = vec![0.0f32; bs * n * n];
        let mut dense = vec![0.0f32; bs * n * d];
        let mask = cross_mask(ns, nd);
        attention_masked_into([&fq, &fk, &fv], &mask, scale, [bs, n, d], &mut scratch, &mut dense);

        // Right-sized scratch: the structured kernel's own contract.
        let mut scratch = vec![0.0f32; bs * ns * nd];
        let mut structured = vec![f32::NAN; bs * n * d];
        attention_cross_shared_into(
            [&split[0].0, &split[1].0, &split[2].0],
            [&split[0].1, &split[1].1, &split[2].1],
            hist,
            scale,
            dims,
            &mut scratch,
            &mut structured,
        );
        for (i, (&a, &b)) in dense.iter().zip(&structured).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "bs={bs} ns0={ns0} ns={ns} nd={nd} d={d}: element {i} diverges ({a} vs {b})"
            );
        }
        structured
    }

    #[test]
    fn cross_shared_exact_matches_dense_masked_exact_bitwise() {
        // Serving and retrieval geometry, odd shapes, an exact vector chunk
        // and a ragged tail of history columns (nd = 8, 16 / 13, 20), a
        // width with a ragged lane tail (d = 7), and both empty sides — each
        // with none, some and all (`ns1 = 0`) of its static rows shared. CI
        // runs this under the default and `SEQFM_WORKERS=4` arms (the
        // first shape clears the fan-out threshold, so the latter
        // partitions it across the pool, one prelude per chunk).
        for &(bs, ns, nd, d) in &[
            (100usize, 2usize, 20usize, 32usize),
            (64, 2, 20, 32),
            (3, 2, 13, 16),
            (2, 2, 8, 8),
            (1, 2, 16, 4),
            (2, 3, 5, 7),
            (4, 1, 3, 8),
            (1, 2, 0, 4),
            (2, 0, 4, 4),
        ] {
            let mut seed = 211 + (bs * 7 + ns * 31 + nd) as u64;
            let stat = [(); 3].map(|()| rand_tensor(Shape::d3(bs, ns.max(1), d), &mut seed));
            let hist = [(); 3].map(|()| rand_tensor(Shape::d2(nd.max(1), d), &mut seed));
            for ns0 in 0..=ns {
                assert_cross_shared_exact_matches_dense(
                    [stat[0].data(), stat[1].data(), stat[2].data()],
                    [hist[0].data(), hist[1].data(), hist[2].data()],
                    [bs, ns, nd, d],
                    ns0,
                );
            }
        }
    }

    #[test]
    fn cross_shared_exact_skips_underflowed_weights_like_dense() {
        // One admitted score per row sits ≈ 200 below the row max, so its
        // softmax weight underflows to exactly 0.0 — and the value row it
        // would have weighted is +∞. The dense `nn` product skips
        // `w == 0.0`; a kernel that multiplied instead would turn 0·∞ into
        // NaN. Both admitted blocks get such a column, and static column 0
        // (the one carrying it) is driven both as each slice's own row and
        // as the shared row, where its score column comes from the prelude.
        let (bs, ns, nd, d) = (3usize, 2usize, 20usize, 32usize);
        let mut seed = 977;
        let mut stat = [(); 3].map(|()| rand_tensor(Shape::d3(bs, ns, d), &mut seed));
        let mut hist = [(); 3].map(|()| rand_tensor(Shape::d2(nd, d), &mut seed));
        let (j, r) = (5usize, 11usize);
        // Static rows vs history column `j`: q·k ≈ −1200 → ·1/√32 ≈ −212.
        for row in stat[0].data_mut().chunks_exact_mut(d) {
            row[0] = 30.0;
        }
        for (jj, row) in hist[1].data_mut().chunks_exact_mut(d).enumerate() {
            row[0] = if jj == j { -40.0 } else { 0.0 };
        }
        hist[2].data_mut()[j * d..(j + 1) * d].fill(f32::INFINITY);
        // History row `r` vs static column 0 of every slice, likewise (on
        // coordinate 1, so the two constructions do not interact).
        for (rr, row) in hist[0].data_mut().chunks_exact_mut(d).enumerate() {
            row[1] = if rr == r { 30.0 } else { 0.0 };
        }
        for (c, row) in stat[1].data_mut().chunks_exact_mut(d).enumerate() {
            row[1] = if c % ns == 0 { -40.0 } else { 0.0 };
        }
        for slice in stat[2].data_mut().chunks_exact_mut(ns * d) {
            slice[..d].fill(f32::INFINITY);
        }
        let stat_d = [stat[0].data(), stat[1].data(), stat[2].data()];
        let hist_d = [hist[0].data(), hist[1].data(), hist[2].data()];
        for ns0 in 0..=ns {
            let out = assert_cross_shared_exact_matches_dense(stat_d, hist_d, [bs, ns, nd, d], ns0);

            // The skip is what keeps those rows finite: static rows never
            // absorb column j's ∞, and history row r never absorbs column 0's.
            let n = ns + nd;
            for b in 0..bs {
                let slice = &out[b * n * d..(b + 1) * n * d];
                assert!(slice[..ns * d].iter().all(|v| v.is_finite()), "slice {b}: static rows");
                let hist_row = &slice[(ns + r) * d..(ns + r + 1) * d];
                assert!(hist_row.iter().all(|v| v.is_finite()), "slice {b}: history row {r}");
            }
        }
    }

    /// Bit patterns, so `-0.0` ≠ `0.0` and equal NaNs compare equal.
    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// The per-row structured kernels against the dense tape ops on
    /// interleaved `[bs, ns + nd, d]` operands: context, saved weights and
    /// all three gradients, bit for bit.
    fn assert_cross_rows_match_dense(qkv: &[Tensor; 3], d_out: &Tensor, ns: usize) {
        let [q, k, v] = qkv;
        let (bs, n, d) = (q.shape().dim(0), q.shape().dim(1), q.shape().dim(2));
        let nd = n - ns;
        let scale = 1.0 / (d as f32).sqrt();
        let what = format!("bs={bs} ns={ns} nd={nd} d={d}");

        // Reference: the op sequence the dense tape records, and its backward.
        let mask = cross_mask(ns, nd);
        let attn = softmax_lastdim_masked(&ew::scale(&bmm_nt(q, k), scale), &mask);
        let want_out = bmm_nn(&attn, v);
        let d_attn = bmm_nt(d_out, v);
        let want_dv = crate::bmm_tn(&attn, d_out);
        let d_scores = ew::scale(&crate::softmax_backward_lastdim(&attn, &d_attn), scale);
        let want_dq = bmm_nn(&d_scores, k);
        let want_dk = crate::bmm_tn(&d_scores, q);

        let data = [q.data(), k.data(), v.data()];
        let hist = data.map(|x| x.get(ns * d..).unwrap_or_default());
        let mut weights = vec![f32::NAN; bs * 2 * ns * nd];
        let mut out = vec![f32::NAN; bs * n * d];
        let dims = [bs, ns, nd, d];
        attention_cross_rows_into(data, n * d, hist, n * d, scale, dims, &mut weights, &mut out);
        assert_eq!(bits(&out), bits(want_out.data()), "{what}: context");
        for b in 0..bs {
            let (w_stat, w_hist) =
                weights[b * 2 * ns * nd..(b + 1) * 2 * ns * nd].split_at(ns * nd);
            for i in 0..ns {
                for j in 0..nd {
                    assert_eq!(w_stat[i * nd + j].to_bits(), attn.at3(b, i, ns + j).to_bits());
                    assert_eq!(w_hist[j * ns + i].to_bits(), attn.at3(b, ns + j, i).to_bits());
                }
            }
        }

        // The same rows as two separately laid-out blocks (the frozen
        // forward's layout): same bits.
        let split = |x: &[f32], lo: usize, rows: usize| -> Vec<f32> {
            x.chunks_exact(n * d).flat_map(|s| s[lo * d..(lo + rows) * d].to_vec()).collect()
        };
        let stat = data.map(|x| split(x, 0, ns));
        let hist = data.map(|x| split(x, ns, nd));
        let mut out_split = vec![f32::NAN; bs * n * d];
        attention_cross_rows_into(
            [&stat[0], &stat[1], &stat[2]],
            ns * d,
            [&hist[0], &hist[1], &hist[2]],
            nd * d,
            scale,
            dims,
            &mut weights,
            &mut out_split,
        );
        assert_eq!(bits(&out_split), bits(&out), "{what}: split layout");

        let mut grads = [(); 3].map(|()| vec![0.0f32; bs * n * d]);
        let [dq, dk, dv] = &mut grads;
        attention_cross_rows_backward_into(data, &weights, d_out.data(), scale, dims, [dq, dk, dv]);
        for (got, (want, name)) in
            grads.iter().zip([(want_dq, "dq"), (want_dk, "dk"), (want_dv, "dv")])
        {
            assert_eq!(bits(got), bits(want.data()), "{what}: {name}");
        }
    }

    #[test]
    fn cross_rows_forward_and_backward_match_the_dense_tape_ops_bitwise() {
        // Training geometry (clears the fan-out threshold under
        // `SEQFM_WORKERS=4`), ragged lane tails, both empty sides.
        for &(bs, ns, nd, d) in &[
            (128usize, 2usize, 20usize, 32usize),
            (3, 2, 13, 16),
            (2, 3, 5, 7),
            (4, 1, 3, 8),
            (1, 2, 0, 4),
            (2, 0, 4, 4),
        ] {
            let mut seed = 401 + (bs * 7 + ns * 31 + nd) as u64;
            let qkv = [(); 3].map(|()| rand_tensor(Shape::d3(bs, ns + nd, d), &mut seed));
            let d_out = rand_tensor(Shape::d3(bs, ns + nd, d), &mut seed);
            assert_cross_rows_match_dense(&qkv, &d_out, ns);
        }
    }

    #[test]
    fn cross_rows_backward_skips_zero_weights_and_zero_score_gradients_like_dense() {
        // Padding: zero Q/K/V history rows and zero upstream gradient rows
        // give exact-zero `dS` entries and products, and one admitted weight
        // per block underflows to exactly 0.0 — every skip the dense `nn` /
        // `tn` chains take must be taken here (a `-0.0` for a `+0.0` would
        // show in the bits).
        let (bs, ns, nd, d) = (3usize, 2usize, 6usize, 8usize);
        let mut seed = 1201;
        let mut qkv = [(); 3].map(|()| rand_tensor(Shape::d3(bs, ns + nd, d), &mut seed));
        let mut d_out = rand_tensor(Shape::d3(bs, ns + nd, d), &mut seed);
        for b in 0..bs {
            for pad_row in ns..ns + 2 {
                let row = (b * (ns + nd) + pad_row) * d;
                for t in &mut qkv {
                    t.data_mut()[row..row + d].fill(0.0);
                }
                d_out.data_mut()[row..row + d].fill(0.0);
            }
            // Static row 0 vs history column 4, and history row 5 vs static
            // column 1: scores ≈ −1200/√8, far below the row max.
            let at = |r: usize| (b * (ns + nd) + r) * d;
            qkv[0].data_mut()[at(0)] = 30.0;
            qkv[1].data_mut()[at(ns + 4)] = -40.0;
            qkv[0].data_mut()[at(ns + 5) + 1] = 30.0;
            qkv[1].data_mut()[at(1) + 1] = -40.0;
        }
        assert_cross_rows_match_dense(&qkv, &d_out, ns);
    }

    /// The causal kernels and the dense oracle on the same `[bs, n, d]`
    /// operands: the oracle's forward (and, given `d_out`, backward)
    /// against the structured pair — weights, context and, with the
    /// backward, dQ / dK / dV, bit for bit. Returns the structured context
    /// and gradients.
    fn causal_vs_oracle(
        qkv: [&[f32]; 3],
        d_out: Option<&[f32]>,
        [bs, n, d]: [usize; 3],
    ) -> (Vec<f32>, [Vec<f32>; 3]) {
        let scale = 1.0 / (d as f32).sqrt();
        let what = format!("bs={bs} n={n} d={d}");
        let mut dense_w = vec![f32::NAN; bs * n * n];
        let mut dense = vec![f32::NAN; bs * n * d];
        attention_masked_into(qkv, &causal_mask(n), scale, [bs, n, d], &mut dense_w, &mut dense);
        let mut weights = vec![f32::NAN; bs * n * (n + 1) / 2];
        let mut out = vec![f32::NAN; bs * n * d];
        attention_causal_into(qkv[0], qkv[1], qkv[2], scale, [bs, n, d], &mut weights, &mut out);
        assert_eq!(bits(&out), bits(&dense), "{what}: context");
        assert_eq!(bits(&unpack_causal(&weights, bs, n)), bits(&dense_w), "{what}: weights");

        let mut grads = [(); 3].map(|()| vec![0.0f32; bs * n * d]);
        if let Some(d_out) = d_out {
            let mut scratch = vec![0.0f32; 2 * bs * n * n];
            let mut want = [(); 3].map(|()| vec![f32::NAN; bs * n * d]);
            let [dq, dk, dv] = &mut want;
            let dims = [bs, n, d];
            attention_masked_backward_into(
                qkv,
                &dense_w,
                d_out,
                scale,
                dims,
                &mut scratch,
                [dq, dk, dv],
            );
            let [dq, dk, dv] = &mut grads;
            attention_causal_backward_into(qkv, &weights, d_out, scale, dims, [dq, dk, dv]);
            for ((got, want), name) in grads.iter().zip(&want).zip(["dq", "dk", "dv"]) {
                assert_eq!(bits(got), bits(want), "{what}: {name}");
            }
        }
        (out, grads)
    }

    #[test]
    fn causal_forward_and_backward_match_the_dense_oracle_bitwise() {
        // Training geometry (clears the fan-out threshold under
        // `SEQFM_WORKERS=4`), a ragged lane tail of key columns (n = 13, 9),
        // odd widths, a single position. Each slice opens with 0–n all-zero
        // (padding) rows, and in each slice the last row scores ≈ −200 below
        // its row max against the second-to-last, so that weight underflows
        // to exactly 0.0 — the `nn` / `tn` chains skip it, and opposite a
        // `+∞` value row a kernel that multiplied instead would turn
        // `0 · ∞` into NaN.
        for &(bs, n, d) in
            &[(128usize, 20usize, 32usize), (3, 13, 16), (2, 5, 7), (4, 1, 8), (1, 9, 4)]
        {
            let mut seed = 1301 + (bs * 7 + n * 31 + d) as u64;
            let mut qkv = [(); 3].map(|()| rand_tensor(Shape::d3(bs, n, d), &mut seed));
            let d_out = rand_tensor(Shape::d3(bs, n, d), &mut seed);
            let underflow = (n >= 2).then(|| (n - 1, n - 2));
            for b in 0..bs {
                let pad = (b * 5 + 2) % (if n >= 2 { n - 1 } else { n + 1 });
                let at = |r: usize| (b * n + r) * d;
                for t in &mut qkv {
                    t.data_mut()[at(0)..at(pad)].fill(0.0);
                }
                if let Some((i, j)) = underflow {
                    for r in pad..n {
                        qkv[0].data_mut()[at(r)] = if r == i { 30.0 } else { 0.0 };
                        qkv[1].data_mut()[at(r)] = if r == j { -40.0 } else { 0.0 };
                    }
                }
            }
            fn data(qkv: &[Tensor; 3]) -> [&[f32]; 3] {
                [qkv[0].data(), qkv[1].data(), qkv[2].data()]
            }
            let dims = [bs, n, d];
            causal_vs_oracle(data(&qkv), Some(d_out.data()), dims);

            // The value row the zero weight points at overflows: forward
            // bits only (`dA = dO·Vᵀ` is ±∞ there, and the oracle's masked
            // `0 · ∞` makes earlier rows NaN — the one documented change).
            if let Some((i, j)) = underflow {
                for b in 0..bs {
                    qkv[2].data_mut()[(b * n + j) * d..(b * n + j + 1) * d].fill(f32::INFINITY);
                }
                let (out, _) = causal_vs_oracle(data(&qkv), None, dims);
                for b in 0..bs {
                    let row = &out[(b * n + i) * d..(b * n + i + 1) * d];
                    assert!(row.iter().all(|x| x.is_finite()), "slice {b}: row {i} absorbed ∞");
                }
            }
        }
    }

    #[test]
    fn causal_rows_ignore_non_finite_future_positions() {
        // A NaN key, then an infinite value, at position `j`: every row
        // `i < j` of the structured kernels reads rows `0..=i` alone, so its
        // context (NaN case) and its dQ (∞ case) keep the clean run's bits.
        // The dense oracle adds the mask to the NaN score (`NaN + (−∞)`) and
        // multiplies the masked weight into the infinite `dA` (`0 · ∞`):
        // its rows `< j` go NaN.
        let (bs, n, d, j) = (2usize, 6usize, 8usize, 3usize);
        let scale = 1.0 / (d as f32).sqrt();
        let mut seed = 1409;
        let clean = [(); 3].map(|()| rand_tensor(Shape::d3(bs, n, d), &mut seed));
        let d_out = rand_tensor(Shape::d3(bs, n, d), &mut seed);
        let run = |qkv: &[Tensor; 3]| {
            let qkv = [qkv[0].data(), qkv[1].data(), qkv[2].data()];
            let mut weights = vec![0.0f32; bs * n * (n + 1) / 2];
            let mut out = vec![0.0f32; bs * n * d];
            attention_causal_into(
                qkv[0],
                qkv[1],
                qkv[2],
                scale,
                [bs, n, d],
                &mut weights,
                &mut out,
            );
            let mut dq = vec![0.0f32; bs * n * d];
            let [mut dk, mut dv] = [(); 2].map(|()| vec![0.0f32; bs * n * d]);
            let grads = [&mut dq[..], &mut dk, &mut dv];
            attention_causal_backward_into(qkv, &weights, d_out.data(), scale, [bs, n, d], grads);
            let (mut dense_w, mut dense) = (vec![0.0; bs * n * n], vec![0.0; bs * n * d]);
            let causal = causal_mask(n);
            attention_masked_into(qkv, &causal, scale, [bs, n, d], &mut dense_w, &mut dense);
            let mut scratch = vec![0.0; 2 * bs * n * n];
            let mut dense_grads = [(); 3].map(|()| vec![0.0f32; bs * n * d]);
            let [ddq, ddk, ddv] = &mut dense_grads;
            let dims = [bs, n, d];
            let grads = [&mut ddq[..], ddk, ddv];
            attention_masked_backward_into(
                qkv,
                &dense_w,
                d_out.data(),
                scale,
                dims,
                &mut scratch,
                grads,
            );
            [out, dq, dense, dense_grads[0].clone()]
        };
        let early = |x: &[f32], b: usize| x[b * n * d..(b * n + j) * d].to_vec();
        let [want_out, want_dq, ..] = run(&clean);

        for (operand, poison, output) in [(1, f32::NAN, 0), (2, f32::INFINITY, 1)] {
            let mut qkv = clean.clone();
            for b in 0..bs {
                qkv[operand].data_mut()[(b * n + j) * d + 1] = poison;
            }
            let got = run(&qkv);
            let want = [&want_out, &want_dq][output];
            for b in 0..bs {
                let rows = early(&got[output], b);
                assert_eq!(bits(&rows), bits(&early(want, b)), "slice {b}: rows < {j} moved");
                assert!(rows.iter().all(|x| x.is_finite()), "slice {b}: rows < {j} not finite");
                let dense = early(&got[output + 2], b);
                assert!(dense.iter().all(|x| x.is_nan()), "slice {b}: the oracle stayed finite");
            }
        }
    }
}
