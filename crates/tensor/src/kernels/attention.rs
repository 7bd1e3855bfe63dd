//! Fused scaled-dot-product attention over raw slices — the graph-free
//! inference counterpart of the tape ops `bmm_nt → scale → softmax → bmm`.
//!
//! Every *output element* of the exact kernels here runs the same chain of
//! floating-point operations, in the same order, as the graph path — so a
//! frozen forward pass that uses them reproduces `Graph`-built logits bit
//! for bit. The dense [`attention_into`] gets there by replaying the tape's
//! ops wholesale; the structured [`attention_cross_shared_into`] replays
//! only the chains of the pairs the cross mask admits and never forms the
//! masked ones (whose contribution to every admitted chain is an exact
//! no-op). The caller provides both the output buffer and a scores scratch
//! buffer, so repeated calls allocate nothing. Above the dispatch threshold
//! the batch dimension fans out over the global thread pool — per-slice
//! arithmetic is untouched, so the bit-for-bit guarantee survives parallel
//! execution.

use super::bmm::{bmm_nn_fast_into, bmm_nn_into, bmm_nt_fast_into, bmm_nt_into};
use super::softmax::{softmax2_fast, softmax_row_inplace, softmax_row_inplace_fast, AttnMask};

/// `out[b,n,d] = softmax(scale · Q·Kᵀ + M) · V` per batch slice.
///
/// `q`/`k`/`v` are `[bs, n, d]` row-major slices; `scores` is a scratch
/// buffer of at least `bs·n·n` elements (overwritten with the attention
/// weights); `out` must hold at least `bs·n·d` elements and is overwritten
/// (not accumulated). `mask`, when given, is `[n, n]` and shared across the
/// batch, as everywhere else in this crate; fully-masked rows produce
/// all-zero attention weights, keeping padding rows inert.
///
/// # Panics
/// Panics if any buffer is too small or the mask dims do not match `n`.
#[allow(clippy::too_many_arguments)]
pub fn attention_into(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    mask: Option<&AttnMask>,
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
    if let Some(mk) = mask {
        assert_eq!(
            (mk.rows(), mk.cols()),
            (n, n),
            "attention mask [{}x{}] does not match n = {n}",
            mk.rows(),
            mk.cols()
        );
    }
    let (q, k, v) = (&q[..bs * n * d], &k[..bs * n * d], &v[..bs * n * d]);
    let scores = &mut scores[..bs * n * n];
    let out = &mut out[..bs * n * d];

    // ~2 multiply-add passes of n·n·d plus the softmax per slice.
    let work_per_slice = 2 * n * n * d + 16 * n * n;
    if super::dispatch::should_par(bs * work_per_slice, bs) {
        seqfm_parallel::par_units2(
            seqfm_parallel::global(),
            scores,
            n * n,
            out,
            n * d,
            |b0, scores_chunk, out_chunk| {
                let slices = scores_chunk.len() / (n * n);
                let q = &q[b0 * n * d..(b0 + slices) * n * d];
                let k = &k[b0 * n * d..(b0 + slices) * n * d];
                let v = &v[b0 * n * d..(b0 + slices) * n * d];
                attention_slices(q, k, v, mask, scale, slices, n, d, scores_chunk, out_chunk);
            },
        );
    } else {
        attention_slices(q, k, v, mask, scale, bs, n, d, scores, out);
    }
}

/// The fused attention pipeline over `bs` batch slices — exactly the serial
/// op order (`Q·Kᵀ → scale → masked softmax → ·V`), used both as the serial
/// path and as each parallel task's body.
#[allow(clippy::too_many_arguments)]
fn attention_slices(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    mask: Option<&AttnMask>,
    scale: f32,
    bs: usize,
    n: usize,
    d: usize,
    scores: &mut [f32],
    out: &mut [f32],
) {
    // Q·Kᵀ, then the 1/√d scale — same op order as the tape.
    scores.fill(0.0);
    bmm_nt_into(q, k, scores, bs, n, d, n);
    for s in scores.iter_mut() {
        *s *= scale;
    }
    // Masked softmax, row by row in place.
    for (ri, row) in scores.chunks_exact_mut(n).enumerate() {
        let mask_row = mask.map(|mk| {
            let r = ri % n;
            &mk.data()[r * n..(r + 1) * n]
        });
        softmax_row_inplace(row, mask_row);
    }
    // Attention-weighted values.
    out.fill(0.0);
    bmm_nn_into(scores, v, out, bs, n, n, d);
}

/// Exact cross-view attention for a **shared history**: every slice shares
/// one `[nd, d]` block of history-row Q/K/V (`qh`/`kh`/`vh`) under its own
/// `[ns, d]` static rows (`qs`/`ks`/`vs`, laid out `[bs, ns, d]`), and only
/// the static↔history pairs [`AttnMask::cross`] admits are ever scored —
/// each static row softmaxes over the `nd` history columns, each history
/// row over the `ns` static columns. At serving geometry (`ns = 2`,
/// `nd = 20`) that is 80 of the 484 scores per slice the dense masked
/// [`attention_into`] computes, and none of its `3·bs·nd·d` splice copies.
///
/// **Bit-identical** to splicing the history under every slice and calling
/// `attention_into(.., Some(&AttnMask::cross(ns, nd)), ..)`, because every
/// output element runs the dense pipeline's own op chain: a score is
/// `(0.0 + Σ_{p↑} q[p]·k[p]) · scale` with separate multiply and add
/// (`matmul::naive::matmul_nt_into`'s chain; f32 multiplication commutes,
/// so which operand the lanes run along is free); the softmax is
/// `softmax_row_inplace` over the admitted entries in ascending column
/// order (a blocked entry is `−∞`: never the row max, and exactly `+0.0`
/// added to a non-negative running sum); and a context element is the
/// seeded-zero ascending-`j` chain `o += w·v` that skips `w == 0.0`
/// (`matmul::naive::matmul_nn_into`'s chain — blocked weights are exactly
/// zero, so the dense path skips them too). Lanes run *across* history
/// columns from transposed packs of the shared `kh`/`qh`, built once per
/// call in the thread workspace; each lane is still one ascending chain,
/// so SIMD width, arm and worker count cannot change a bit.
///
/// **Not a drop-in when a blocked pair's score is non-finite.** The dense
/// path adds the mask to *every* score, so a blocked score that is NaN or
/// `+∞` (a non-finite Q/K row, or `|q·k|` overflowing f32) becomes NaN and
/// poisons that whole dense row, while this kernel never forms it. The
/// contract is bit-identity whenever blocked-pair scores are finite —
/// always, for finite parameters of sane magnitude. Otherwise the two still
/// agree on *which pooled outputs are NaN* whenever `ns, nd > 0`: a row's
/// own blocked self-pair is non-finite only if its Q or K row is, and every
/// such row also meets an admitted pair (`seqfm-core` pins this per logit
/// against the graph).
///
/// `out` is the full interleaved `[bs, ns + nd, d]` context; `scores` needs
/// `ns·nd` slots per slice (≥ `bs·ns·nd`) of scratch that must not be read
/// back. An empty side means every row is fully masked: all-zero context.
///
/// # Panics
/// Panics if any buffer is too small.
#[allow(clippy::too_many_arguments)]
pub fn attention_cross_shared_into(
    qs: &[f32],
    ks: &[f32],
    vs: &[f32],
    qh: &[f32],
    kh: &[f32],
    vh: &[f32],
    scale: f32,
    bs: usize,
    ns: usize,
    nd: usize,
    d: usize,
    scores: &mut [f32],
    out: &mut [f32],
) {
    cross_shared_dispatch(
        "attention_cross_shared_into",
        cross_shared_slices_exact,
        [qs, ks, vs],
        [qh, kh, vh],
        scale,
        [bs, ns, nd, d],
        scores,
        out,
    );
}

/// Serial body of a shared-history cross kernel over `bs` slices:
/// `(static [q, k, v], history [q, k, v], scale, [bs, ns, nd, d], scores, out)`.
type CrossSharedSlices = fn([&[f32]; 3], [&[f32]; 3], f32, [usize; 4], &mut [f32], &mut [f32]);

/// Buffer checks, the empty-side shortcut and the batch fan-out shared by
/// [`attention_cross_shared_into`] and [`attention_cross_shared_fast_into`];
/// the profile only picks `body`.
#[allow(clippy::too_many_arguments)]
fn cross_shared_dispatch(
    name: &str,
    body: CrossSharedSlices,
    stat: [&[f32]; 3],
    hist: [&[f32]; 3],
    scale: f32,
    [bs, ns, nd, d]: [usize; 4],
    scores: &mut [f32],
    out: &mut [f32],
) {
    let n = ns + nd;
    for (s, side) in stat.iter().zip(["qs", "ks", "vs"]) {
        assert!(s.len() >= bs * ns * d, "{name}: {side} too small");
    }
    for (h, side) in hist.iter().zip(["qh", "kh", "vh"]) {
        assert!(h.len() >= nd * d, "{name}: {side} too small");
    }
    assert!(scores.len() >= bs * ns * nd, "{name}: scores scratch too small");
    assert!(out.len() >= bs * n * d, "{name}: out too small");
    let out = &mut out[..bs * n * d];
    if ns == 0 || nd == 0 {
        // One side empty ⇒ every row is fully masked ⇒ all-zero context
        // (exactly what the dense masked pipeline produces).
        out.fill(0.0);
        return;
    }
    let stat = stat.map(|s| &s[..bs * ns * d]);
    let hist = hist.map(|h| &h[..nd * d]);
    let scores = &mut scores[..bs * ns * nd];

    // Two admitted blocks of ns·nd scores, each read once for the weighted
    // value sum → 4·ns·nd·d multiply-adds plus 2·ns·nd exp-weighted ops.
    let work_per_slice = 4 * ns * nd * d + 32 * ns * nd;
    if super::dispatch::should_par(bs * work_per_slice, bs) {
        seqfm_parallel::par_units2(
            seqfm_parallel::global(),
            scores,
            ns * nd,
            out,
            n * d,
            |b0, scores_chunk, out_chunk| {
                let slices = scores_chunk.len() / (ns * nd);
                let stat = stat.map(|s| &s[b0 * ns * d..(b0 + slices) * ns * d]);
                body(stat, hist, scale, [slices, ns, nd, d], scores_chunk, out_chunk);
            },
        );
    } else {
        body(stat, hist, scale, [bs, ns, nd, d], scores, out);
    }
}

/// Serial body of [`attention_cross_shared_into`] over `bs` slices: four
/// small `A·B` products per slice through [`nn_chains`], with the canonical
/// row softmax between each pair.
fn cross_shared_slices_exact(
    [qs, ks, vs]: [&[f32]; 3],
    [qh, kh, vh]: [&[f32]; 3],
    scale: f32,
    [bs, ns, nd, d]: [usize; 4],
    scores: &mut [f32],
    out: &mut [f32],
) {
    let n = ns + nd;
    crate::workspace::with_thread(|ws| {
        let mut kht = ws.take(d * nd);
        let mut qht = ws.take(d * nd);
        pack_transposed(kh, nd, d, &mut kht);
        pack_transposed(qh, nd, d, &mut qht);
        for b in 0..bs {
            let sq = &qs[b * ns * d..(b + 1) * ns * d];
            let sk = &ks[b * ns * d..(b + 1) * ns * d];
            let sv = &vs[b * ns * d..(b + 1) * ns * d];
            let (out_stat, out_dyn) = out[b * n * d..(b + 1) * n * d].split_at_mut(ns * d);
            let w = &mut scores[b * ns * nd..(b + 1) * ns * nd];

            // Static rows attend to the shared history's nd columns
            // (`w` is `[ns, nd]`): scores `sq · khᵀ`, then context `w · vh`.
            nn_chains::<false>(sq, d, ns, &kht, nd, nd, d, |i, j0, acc| {
                for (slot, &a) in w[i * nd + j0..].iter_mut().zip(acc) {
                    *slot = (0.0 + a) * scale;
                }
            });
            for wrow in w.chunks_exact_mut(nd) {
                softmax_row_inplace(wrow, None);
            }
            nn_chains::<true>(w, nd, ns, vh, d, d, nd, |i, t0, acc| {
                out_stat[i * d + t0..][..acc.len()].copy_from_slice(acc);
            });

            // History rows attend to this slice's ns static columns. The
            // lanes still run across history rows (`sk · qhᵀ`, the same
            // products as `qh · skᵀ`), stored transposed so `w` is the
            // `[nd, ns]` weight block: one contiguous softmax row per
            // history row, then context `w · sv`.
            nn_chains::<false>(sk, d, ns, &qht, nd, nd, d, |c, r0, acc| {
                for (slot, &a) in w[r0 * ns + c..].iter_mut().step_by(ns).zip(acc) {
                    *slot = (0.0 + a) * scale;
                }
            });
            for wrow in w.chunks_exact_mut(ns) {
                softmax_row_inplace(wrow, None);
            }
            nn_chains::<true>(w, ns, nd, sv, d, d, ns, |r, t0, acc| {
                out_dyn[r * d + t0..][..acc.len()].copy_from_slice(acc);
            });
        }
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
                (true, 16..) => chain_tile::<2, 16, SKIP>(a, lda, b, ldb, depth, &mut put),
                (true, 8..) => chain_tile::<2, 8, SKIP>(a, lda, b, ldb, depth, &mut put),
                (true, 4..) => chain_tile::<2, 4, SKIP>(a, lda, b, ldb, depth, &mut put),
                (true, _) => chain_tile::<2, 1, SKIP>(a, lda, b, ldb, depth, &mut put),
                (false, 16..) => chain_tile::<1, 16, SKIP>(a, lda, b, ldb, depth, &mut put),
                (false, 8..) => chain_tile::<1, 8, SKIP>(a, lda, b, ldb, depth, &mut put),
                (false, 4..) => chain_tile::<1, 4, SKIP>(a, lda, b, ldb, depth, &mut put),
                (false, _) => chain_tile::<1, 1, SKIP>(a, lda, b, ldb, depth, &mut put),
            };
        }
        i0 += if pair { 2 } else { 1 };
    }
}

/// One `R × L` register tile of [`nn_chains`], anchored at `a`'s first row
/// and `b`'s first column: `R·L` independent chains, accumulators held in
/// registers across the whole `p` walk. Returns `L`.
#[inline(always)]
fn chain_tile<const R: usize, const L: usize, const SKIP: bool>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    depth: usize,
    put: &mut impl FnMut(usize, &[f32]),
) -> usize {
    let mut acc = [[0.0f32; L]; R];
    // Slice every operand row once, so the `p` walk carries no bounds
    // checks beyond the one lane-block slice.
    let rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * lda..r * lda + depth]);
    for (p, bp) in b.chunks(ldb).take(depth).enumerate() {
        let bp = &bp[..L];
        for (acc_r, row) in acc.iter_mut().zip(rows) {
            let ap = row[p];
            if SKIP && ap == 0.0 {
                continue;
            }
            for (slot, &bv) in acc_r.iter_mut().zip(bp) {
                *slot += ap * bv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        put(r, acc_r);
    }
    L
}

/// Fast-profile [`attention_into`]: the same fused pipeline and the same
/// buffer/mask contract, with the score and value products running the
/// fused-FMA matmuls and the softmax using the deterministic polynomial
/// `exp_fast`. Masked positions still produce *exactly* zero weights and
/// fully-masked rows all-zero output, so padding stays inert and the
/// retrieval bounds' convexity argument applies unchanged. Deterministic on
/// every target, but not bit-equal to [`attention_into`].
#[allow(clippy::too_many_arguments)]
pub fn attention_fast_into(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    mask: Option<&AttnMask>,
    scale: f32,
    bs: usize,
    n: usize,
    d: usize,
    scores: &mut [f32],
    out: &mut [f32],
) {
    assert!(q.len() >= bs * n * d, "attention_fast_into: q too small");
    assert!(k.len() >= bs * n * d, "attention_fast_into: k too small");
    assert!(v.len() >= bs * n * d, "attention_fast_into: v too small");
    assert!(scores.len() >= bs * n * n, "attention_fast_into: scores scratch too small");
    assert!(out.len() >= bs * n * d, "attention_fast_into: out too small");
    if let Some(mk) = mask {
        assert_eq!(
            (mk.rows(), mk.cols()),
            (n, n),
            "attention mask [{}x{}] does not match n = {n}",
            mk.rows(),
            mk.cols()
        );
    }
    let (q, k, v) = (&q[..bs * n * d], &k[..bs * n * d], &v[..bs * n * d]);
    let scores = &mut scores[..bs * n * n];
    let out = &mut out[..bs * n * d];

    let work_per_slice = 2 * n * n * d + 16 * n * n;
    if super::dispatch::should_par(bs * work_per_slice, bs) {
        seqfm_parallel::par_units2(
            seqfm_parallel::global(),
            scores,
            n * n,
            out,
            n * d,
            |b0, scores_chunk, out_chunk| {
                let slices = scores_chunk.len() / (n * n);
                let q = &q[b0 * n * d..(b0 + slices) * n * d];
                let k = &k[b0 * n * d..(b0 + slices) * n * d];
                let v = &v[b0 * n * d..(b0 + slices) * n * d];
                attention_fast_slices(q, k, v, mask, scale, slices, n, d, scores_chunk, out_chunk);
            },
        );
    } else {
        attention_fast_slices(q, k, v, mask, scale, bs, n, d, scores, out);
    }
}

/// Fast-profile body of [`attention_fast_slices`]'s pipeline over `bs`
/// slices: fused-FMA `Q·Kᵀ` → scale → fast masked softmax → fused-FMA `·V`.
#[allow(clippy::too_many_arguments)]
fn attention_fast_slices(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    mask: Option<&AttnMask>,
    scale: f32,
    bs: usize,
    n: usize,
    d: usize,
    scores: &mut [f32],
    out: &mut [f32],
) {
    scores.fill(0.0);
    bmm_nt_fast_into(q, k, scores, bs, n, d, n);
    for s in scores.iter_mut() {
        *s *= scale;
    }
    for (ri, row) in scores.chunks_exact_mut(n).enumerate() {
        let mask_row = mask.map(|mk| {
            let r = ri % n;
            &mk.data()[r * n..(r + 1) * n]
        });
        softmax_row_inplace_fast(row, mask_row);
    }
    out.fill(0.0);
    bmm_nn_fast_into(scores, v, out, bs, n, n, d);
}

/// Block-structured fast attention for the **cross view**: equivalent to
/// [`attention_fast_into`] with [`AttnMask::cross(ns, nd)`](AttnMask::cross)
/// over `n = ns + nd` positions, but it never touches the masked blocks.
///
/// The cross mask only admits static↔dynamic interactions, so a dense
/// `n × n` score matrix is `(ns² + nd²)/n²` wasted work — at serving
/// geometry (`ns = 2`, `nd = 20`) **83 % of the scores are computed and
/// discarded**. This kernel computes exactly the admitted pairs: each
/// static row softmaxes over the `nd` dynamic columns, each dynamic row
/// over the `ns` static columns.
///
/// Output is **bit-identical** to the dense masked fast path, not merely
/// close: the dense pipeline's per-element score is the same seeded-zero
/// ascending-`p` `mul_add` chain this kernel runs; blocked entries enter
/// the dense softmax as `−∞` (never the max, exactly `+0.0` weight) and
/// enter the dense value product as `+0.0 · vⱼ` (an exact no-op on the
/// non-negative partial sums) — so dropping them changes nothing. A test
/// below pins this equivalence. Every op is scalar `f32`/`mul_add`
/// (one shared path, no SIMD arm), so cross-arm determinism is structural.
///
/// `scores` keeps the dense scratch contract (≥ `bs·n·n`) so the kernel is
/// a drop-in for the dense call, but only the first `ns·nd` slots of each
/// slice's block are used (as block weight scratch); the rest is left
/// untouched, so callers must not read the scores buffer back.
///
/// Degenerate sides behave like fully-masked rows: with `nd = 0` every
/// static row (and with `ns = 0` every dynamic row) outputs zeros.
///
/// # Panics
/// Panics if any buffer is too small.
#[allow(clippy::too_many_arguments)]
pub fn attention_cross_fast_into(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    scale: f32,
    bs: usize,
    ns: usize,
    nd: usize,
    d: usize,
    scores: &mut [f32],
    out: &mut [f32],
) {
    let n = ns + nd;
    assert!(q.len() >= bs * n * d, "attention_cross_fast_into: q too small");
    assert!(k.len() >= bs * n * d, "attention_cross_fast_into: k too small");
    assert!(v.len() >= bs * n * d, "attention_cross_fast_into: v too small");
    assert!(scores.len() >= bs * n * n, "attention_cross_fast_into: scores scratch too small");
    assert!(out.len() >= bs * n * d, "attention_cross_fast_into: out too small");
    let (q, k, v) = (&q[..bs * n * d], &k[..bs * n * d], &v[..bs * n * d]);
    let scores = &mut scores[..bs * n * n];
    let out = &mut out[..bs * n * d];

    // Two admitted blocks of ns·nd scores, each read once for the weighted
    // value sum → 4·ns·nd·d multiply-adds plus 2·ns·nd exp-weighted ops.
    let work_per_slice = 4 * ns * nd * d + 32 * ns * nd;
    if super::dispatch::should_par(bs * work_per_slice, bs) {
        seqfm_parallel::par_units2(
            seqfm_parallel::global(),
            scores,
            n * n,
            out,
            n * d,
            |b0, scores_chunk, out_chunk| {
                let slices = scores_chunk.len() / (n * n);
                let q = &q[b0 * n * d..(b0 + slices) * n * d];
                let k = &k[b0 * n * d..(b0 + slices) * n * d];
                let v = &v[b0 * n * d..(b0 + slices) * n * d];
                cross_fast_slices(q, k, v, scale, slices, ns, nd, d, scores_chunk, out_chunk);
            },
        );
    } else {
        cross_fast_slices(q, k, v, scale, bs, ns, nd, d, scores, out);
    }
}

/// Serial body of [`attention_cross_fast_into`] over `bs` slices.
#[allow(clippy::too_many_arguments)]
fn cross_fast_slices(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    scale: f32,
    bs: usize,
    ns: usize,
    nd: usize,
    d: usize,
    scores: &mut [f32],
    out: &mut [f32],
) {
    let n = ns + nd;
    for b in 0..bs {
        let qs = &q[b * n * d..(b + 1) * n * d];
        let ks = &k[b * n * d..(b + 1) * n * d];
        let vs = &v[b * n * d..(b + 1) * n * d];
        let (out_stat, out_dyn) = out[b * n * d..(b + 1) * n * d].split_at_mut(ns * d);
        let w = &mut scores[b * n * n..b * n * n + ns * nd];
        // Static rows (0..ns) attend to the nd dynamic columns.
        cross_block(&qs[..ns * d], &ks[ns * d..], &vs[ns * d..], out_stat, w, scale, ns, nd, d);
        // Dynamic rows (ns..n) attend to the ns static columns.
        cross_block(&qs[ns * d..], &ks[..ns * d], &vs[..ns * d], out_dyn, w, scale, nd, ns, d);
    }
}

/// One admitted block: `rows` query rows softmax over `cols` key/value rows
/// and write their context rows (all buffers are the block itself,
/// row-major). The per-element op chains match the dense fast pipeline
/// exactly (see [`attention_cross_fast_into`]); `w` provides ≥ `rows·cols`
/// scratch.
#[allow(clippy::too_many_arguments)]
fn cross_block(
    q: &[f32],
    kblk: &[f32],
    vblk: &[f32],
    out: &mut [f32],
    w: &mut [f32],
    scale: f32,
    rows: usize,
    cols: usize,
    d: usize,
) {
    if cols == 0 {
        // Fully-masked rows: the dense pipeline softmaxes an all-−∞ row to
        // exact zeros, so the context rows are zero.
        out[..rows * d].fill(0.0);
        return;
    }
    let kblk = &kblk[..cols * d];
    let vblk = &vblk[..cols * d];
    let w = &mut w[..rows * cols];

    // Scores for the whole block first, 2×2-register-tiled: each score is
    // still its own seeded-zero ascending-p fused chain (the dense fast nt
    // walk, so every element's op sequence — and its bits — is unchanged),
    // but four chains run interleaved so the FMA unit pipelines instead of
    // stalling on one chain's latency.
    let mut i = 0;
    while i + 2 <= rows {
        let q0 = &q[i * d..(i + 1) * d];
        let q1 = &q[(i + 1) * d..(i + 2) * d];
        let (w0, rest) = w[i * cols..].split_at_mut(cols);
        let w1 = &mut rest[..cols];
        let mut j = 0;
        while j + 2 <= cols {
            let k0 = &kblk[j * d..(j + 1) * d];
            let k1 = &kblk[(j + 1) * d..(j + 2) * d];
            let (mut a00, mut a01, mut a10, mut a11) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for p in 0..d {
                let (q0p, q1p) = (q0[p], q1[p]);
                a00 = q0p.mul_add(k0[p], a00);
                a01 = q0p.mul_add(k1[p], a01);
                a10 = q1p.mul_add(k0[p], a10);
                a11 = q1p.mul_add(k1[p], a11);
            }
            w0[j] = a00;
            w0[j + 1] = a01;
            w1[j] = a10;
            w1[j + 1] = a11;
            j += 2;
        }
        if j < cols {
            let kj = &kblk[j * d..(j + 1) * d];
            let (mut a0, mut a1) = (0.0f32, 0.0f32);
            for p in 0..d {
                a0 = q0[p].mul_add(kj[p], a0);
                a1 = q1[p].mul_add(kj[p], a1);
            }
            w0[j] = a0;
            w1[j] = a1;
        }
        i += 2;
    }
    if i < rows {
        let q0 = &q[i * d..(i + 1) * d];
        let wrow = &mut w[i * cols..(i + 1) * cols];
        let mut j = 0;
        while j + 2 <= cols {
            let k0 = &kblk[j * d..(j + 1) * d];
            let k1 = &kblk[(j + 1) * d..(j + 2) * d];
            let (mut a0, mut a1) = (0.0f32, 0.0f32);
            for p in 0..d {
                let q0p = q0[p];
                a0 = q0p.mul_add(k0[p], a0);
                a1 = q0p.mul_add(k1[p], a1);
            }
            wrow[j] = a0;
            wrow[j + 1] = a1;
            j += 2;
        }
        if j < cols {
            let kj = &kblk[j * d..(j + 1) * d];
            let mut a = 0.0f32;
            for p in 0..d {
                a = q0[p].mul_add(kj[p], a);
            }
            wrow[j] = a;
        }
    }

    // Scale, softmax, and weighted value sum per row; the value loop's d
    // independent chains auto-vectorize across the context lane. Two-wide
    // rows (the dynamic rows' softmax over `ns = 2` static columns — the
    // bulk of the calls at serving geometry) inline the pair softmax,
    // which is bit-identical to the row kernel without its call overhead.
    for (r, wrow) in w.chunks_exact_mut(cols).enumerate() {
        for slot in wrow.iter_mut() {
            *slot *= scale;
        }
        if cols == 2 {
            let (w0, w1) = softmax2_fast(wrow[0], wrow[1]);
            wrow[0] = w0;
            wrow[1] = w1;
        } else {
            softmax_row_inplace_fast(wrow, None);
        }
        let o = &mut out[r * d..(r + 1) * d];
        o.fill(0.0);
        for (&wj, vj) in wrow.iter().zip(vblk.chunks_exact(d)) {
            for (ot, &vt) in o.iter_mut().zip(vj) {
                *ot = wj.mul_add(vt, *ot);
            }
        }
    }
}

/// [`attention_cross_fast_into`] for a **shared history**: every slice
/// shares one `[nd, d]` block of history-row Q/K/V (`qh`/`kh`/`vh`) under
/// its own `[ns, d]` static rows (`qs`/`ks`/`vs`, laid out `[bs, ns, d]`).
///
/// A candidate-expansion batch repeats one user history under every
/// candidate, so the interleaved layout the dense kernel wants costs
/// `3·bs·nd·d` floats of pure copying per call just to place the same
/// history rows under each slice. This entry point reads the shared block
/// in place instead — per-slice arithmetic is `cross_block` either way,
/// so the output is **bit-identical** to splicing the history under each
/// slice and calling [`attention_cross_fast_into`] (a test below pins
/// this). `out` keeps the full interleaved `[bs, ns + nd, d]` layout
/// (every slice's history rows attend to *its* static rows, so their
/// context differs per slice). Unlike the dense drop-in, `scores` only
/// needs the slots actually used — `ns·nd` block-weight scratch per
/// slice (≥ `bs·ns·nd` total) instead of the dense `bs·n²` — so callers
/// can right-size the allocation; its contents are still scratch and
/// must not be read back.
///
/// # Panics
/// Panics if any buffer is too small.
#[allow(clippy::too_many_arguments)]
pub fn attention_cross_shared_fast_into(
    qs: &[f32],
    ks: &[f32],
    vs: &[f32],
    qh: &[f32],
    kh: &[f32],
    vh: &[f32],
    scale: f32,
    bs: usize,
    ns: usize,
    nd: usize,
    d: usize,
    scores: &mut [f32],
    out: &mut [f32],
) {
    cross_shared_dispatch(
        "attention_cross_shared_fast_into",
        cross_shared_slices,
        [qs, ks, vs],
        [qh, kh, vh],
        scale,
        [bs, ns, nd, d],
        scores,
        out,
    );
}

/// Serial body of [`attention_cross_shared_fast_into`] over `bs` slices.
///
/// At the candidate-expansion geometry (`ns = 2` static rows against a
/// history wide enough to fill a vector register) the score chains move to
/// [`cross_shared_slices_avx2`] when the AVX2 arm is active; the scalar
/// [`cross_block`] walk is the reference arm (and the only arm elsewhere).
/// Both arms run the same per-element fused chains, so the choice never
/// changes bits — the spliced-parity test below pins the AVX2 body against
/// the scalar interleaved kernel on AVX2 hosts, and CI's `SEQFM_SIMD=scalar`
/// job pins the fallback.
fn cross_shared_slices(
    [qs, ks, vs]: [&[f32]; 3],
    [qh, kh, vh]: [&[f32]; 3],
    scale: f32,
    [bs, ns, nd, d]: [usize; 4],
    scores: &mut [f32],
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if ns == 2
        && nd >= 8
        && crate::kernels::simd::active_arm() == crate::kernels::simd::SimdArm::Avx2
    {
        cross_shared_slices_avx2(qs, ks, vs, qh, kh, vh, scale, bs, nd, d, scores, out);
        return;
    }
    let n = ns + nd;
    for b in 0..bs {
        let sq = &qs[b * ns * d..(b + 1) * ns * d];
        let sk = &ks[b * ns * d..(b + 1) * ns * d];
        let sv = &vs[b * ns * d..(b + 1) * ns * d];
        let (out_stat, out_dyn) = out[b * n * d..(b + 1) * n * d].split_at_mut(ns * d);
        let w = &mut scores[b * ns * nd..(b + 1) * ns * nd];
        // Static rows attend to the shared history's nd columns.
        cross_block(sq, kh, vh, out_stat, w, scale, ns, nd, d);
        // History rows attend to this slice's ns static columns.
        cross_block(qh, sk, sv, out_dyn, w, scale, nd, ns, d);
    }
}

/// AVX2 arm of [`cross_shared_slices`] for `ns = 2`, `nd ≥ 8`.
///
/// The scalar walk is latency-bound: each score is one serial FMA chain,
/// and at this geometry there are only `2·(ns·nd)` short rows per slice to
/// interleave, so the 2×2 register tiling of [`cross_block`] tops out at
/// ~4 chains in flight. Because the history block is *shared*, its Q/K rows
/// can be packed transposed **once per call** (`kt[p·nd + j] = k[j·d + p]`)
/// and every slice then walks scores column-major with
/// [`scores_colmajor_fast_avx2`][simd]: 16+ chains in flight, unit-stride
/// loads, one load shared by both query rows. Each vector lane still runs
/// the seeded-zero ascending-`p` fused chain of the scalar walk (`q·k` dots
/// commute multiplicand-for-multiplicand on the history side), and the
/// scale/softmax/value tail repeats [`cross_block`]'s scalar ops verbatim —
/// so the output is bit-identical to the scalar arm.
///
/// [simd]: crate::kernels::simd
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn cross_shared_slices_avx2(
    qs: &[f32],
    ks: &[f32],
    vs: &[f32],
    qh: &[f32],
    kh: &[f32],
    vh: &[f32],
    scale: f32,
    bs: usize,
    nd: usize,
    d: usize,
    scores: &mut [f32],
    out: &mut [f32],
) {
    use crate::kernels::simd::scores_colmajor_fast_avx2;
    const NS: usize = 2;
    let n = NS + nd;
    crate::workspace::with_thread(|ws| {
        // Transposed packs of the shared history's K rows (for the static
        // rows' scores) and Q rows (for the history rows' scores) — packed
        // once, reused by every slice in this chunk.
        let mut kht = ws.take(d * nd);
        let mut qht = ws.take(d * nd);
        pack_transposed(kh, nd, d, &mut kht);
        pack_transposed(qh, nd, d, &mut qht);
        for b in 0..bs {
            let sq = &qs[b * NS * d..(b + 1) * NS * d];
            let sk = &ks[b * NS * d..(b + 1) * NS * d];
            let sv = &vs[b * NS * d..(b + 1) * NS * d];
            let (out_stat, out_dyn) = out[b * n * d..(b + 1) * n * d].split_at_mut(NS * d);
            let w = &mut scores[b * NS * nd..(b + 1) * NS * nd];

            // Static rows attend to the shared history's nd columns:
            // scores land row-major, then cross_block's exact scalar tail.
            // SAFETY: the dispatch in `cross_shared_slices` only selects
            // this arm when the CPU reports AVX2+FMA.
            unsafe { scores_colmajor_fast_avx2(sq, &kht, w, NS, nd, d) };
            for r in 0..NS {
                let wrow = &mut w[r * nd..(r + 1) * nd];
                for slot in wrow.iter_mut() {
                    *slot *= scale;
                }
                softmax_row_inplace_fast(wrow, None);
                let o = &mut out_stat[r * d..(r + 1) * d];
                o.fill(0.0);
                for (&wj, vj) in wrow.iter().zip(vh.chunks_exact(d)) {
                    for (ot, &vt) in o.iter_mut().zip(vj) {
                        *ot = wj.mul_add(vt, *ot);
                    }
                }
            }

            // History rows attend to this slice's 2 static columns. Swap
            // the operands so the lanes run across history rows instead:
            // `w[c·nd + r]` holds history row r's score against static
            // column c — the same `qh_r · sk_c` fused chain (multiplication
            // commutes per element), laid out column-major.
            // SAFETY: as above — this arm requires AVX2+FMA.
            unsafe { scores_colmajor_fast_avx2(sk, &qht, w, NS, nd, d) };
            let (v0, v1) = sv[..NS * d].split_at(d);
            for r in 0..nd {
                let (w0, w1) = softmax2_fast(w[r] * scale, w[nd + r] * scale);
                let o = &mut out_dyn[r * d..(r + 1) * d];
                for t in 0..d {
                    o[t] = w1.mul_add(v1[t], w0.mul_add(v0[t], 0.0));
                }
            }
        }
    });
}

/// Fast maskless attention specialized to `n = 2` — the static view's
/// `(user, candidate)` pair at serving geometry. One fused, fully-unrolled
/// pass per slice: four 2×2-register-tiled fused dots, two pair softmaxes
/// (`softmax2_fast`), and two value blends — no bmm dispatch, no scores
/// scratch, no per-row kernel calls.
///
/// Output is **bit-identical** to [`attention_fast_into`] at `n = 2` with
/// no mask (pinned by a test below): the dense fast pipeline's score is
/// the same seeded-zero ascending-`p` `mul_add` chain, its length-2 row
/// softmax runs exactly the `softmax2_fast` op sequence, and its value
/// product is the same seeded-zero ascending-`j` chain. Every op is
/// scalar `f32`/`mul_add`/`exp_fast` (one shared path, no SIMD arm), so
/// cross-arm determinism is structural.
///
/// # Panics
/// Panics if any buffer is too small.
pub fn attention_pair_fast_into(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    scale: f32,
    bs: usize,
    d: usize,
    out: &mut [f32],
) {
    assert!(q.len() >= bs * 2 * d, "attention_pair_fast_into: q too small");
    assert!(k.len() >= bs * 2 * d, "attention_pair_fast_into: k too small");
    assert!(v.len() >= bs * 2 * d, "attention_pair_fast_into: v too small");
    assert!(out.len() >= bs * 2 * d, "attention_pair_fast_into: out too small");
    let (q, k, v) = (&q[..bs * 2 * d], &k[..bs * 2 * d], &v[..bs * 2 * d]);
    let out = &mut out[..bs * 2 * d];

    let work_per_slice = 6 * d + 64;
    if super::dispatch::should_par(bs * work_per_slice, bs) {
        seqfm_parallel::par_units(seqfm_parallel::global(), out, 2 * d, |b0, chunk| {
            let slices = chunk.len() / (2 * d);
            pair_fast_slices(
                &q[b0 * 2 * d..(b0 + slices) * 2 * d],
                &k[b0 * 2 * d..(b0 + slices) * 2 * d],
                &v[b0 * 2 * d..(b0 + slices) * 2 * d],
                scale,
                slices,
                d,
                chunk,
            );
        });
    } else {
        pair_fast_slices(q, k, v, scale, bs, d, out);
    }
}

/// Serial body of [`attention_pair_fast_into`] over `bs` slices.
fn pair_fast_slices(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    scale: f32,
    bs: usize,
    d: usize,
    out: &mut [f32],
) {
    for b in 0..bs {
        let base = b * 2 * d;
        let (q0, q1) = q[base..base + 2 * d].split_at(d);
        let (k0, k1) = k[base..base + 2 * d].split_at(d);
        let (v0, v1) = v[base..base + 2 * d].split_at(d);
        let (mut s00, mut s01, mut s10, mut s11) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for p in 0..d {
            let (q0p, q1p) = (q0[p], q1[p]);
            let (k0p, k1p) = (k0[p], k1[p]);
            s00 = q0p.mul_add(k0p, s00);
            s01 = q0p.mul_add(k1p, s01);
            s10 = q1p.mul_add(k0p, s10);
            s11 = q1p.mul_add(k1p, s11);
        }
        let (w00, w01) = softmax2_fast(s00 * scale, s01 * scale);
        let (w10, w11) = softmax2_fast(s10 * scale, s11 * scale);
        let (o0, o1) = out[base..base + 2 * d].split_at_mut(d);
        for t in 0..d {
            o0[t] = w01.mul_add(v1[t], w00.mul_add(v0[t], 0.0));
            o1[t] = w11.mul_add(v1[t], w10.mul_add(v0[t], 0.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::softmax::softmax_lastdim_masked;
    use crate::testutil::rand_tensor;
    use crate::{bmm_nn, bmm_nt, ew, Shape};
    use std::sync::Arc;

    #[test]
    fn fused_kernel_matches_unfused_ops_bitwise() {
        let (bs, n, d) = (3, 5, 4);
        let mut seed = 23;
        let q = rand_tensor(Shape::d3(bs, n, d), &mut seed);
        let k = rand_tensor(Shape::d3(bs, n, d), &mut seed);
        let v = rand_tensor(Shape::d3(bs, n, d), &mut seed);
        let scale = 1.0 / (d as f32).sqrt();
        let mask = Arc::new(AttnMask::causal(n));

        // Reference: the exact op sequence the tape records.
        let scores = ew::scale(&bmm_nt(&q, &k), scale);
        let attn = softmax_lastdim_masked(&scores, &mask);
        let expect = bmm_nn(&attn, &v);

        let mut scratch = vec![0.0f32; bs * n * n];
        let mut out = vec![0.0f32; bs * n * d];
        attention_into(
            q.data(),
            k.data(),
            v.data(),
            Some(&mask),
            scale,
            bs,
            n,
            d,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out, expect.data(), "fused attention diverges from the tape ops");
        assert_eq!(scratch, attn.data(), "attention weights diverge");
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

    #[test]
    fn cross_fast_matches_dense_masked_fast_bitwise() {
        // Serving geometry, an odd small shape, and both degenerate sides
        // (one of them makes a whole block fully masked → zeros).
        for &(bs, ns, nd, d) in
            &[(3usize, 2usize, 20usize, 32usize), (2, 3, 5, 7), (1, 2, 0, 4), (1, 0, 4, 4)]
        {
            let n = ns + nd;
            let mut seed = 77 + (ns * 31 + nd) as u64;
            let q = rand_tensor(Shape::d3(bs, n, d), &mut seed);
            let k = rand_tensor(Shape::d3(bs, n, d), &mut seed);
            let v = rand_tensor(Shape::d3(bs, n, d), &mut seed);
            let scale = 1.0 / (d as f32).sqrt();
            let mask = AttnMask::cross(ns, nd);

            let mut scratch = vec![0.0f32; bs * n * n];
            let mut dense = vec![0.0f32; bs * n * d];
            attention_fast_into(
                q.data(),
                k.data(),
                v.data(),
                Some(&mask),
                scale,
                bs,
                n,
                d,
                &mut scratch,
                &mut dense,
            );
            let mut structured = vec![0.0f32; bs * n * d];
            attention_cross_fast_into(
                q.data(),
                k.data(),
                v.data(),
                scale,
                bs,
                ns,
                nd,
                d,
                &mut scratch,
                &mut structured,
            );
            for (i, (&a, &b)) in dense.iter().zip(&structured).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "ns={ns} nd={nd} d={d}: element {i} diverges ({a} vs {b})"
                );
            }
        }
    }

    #[test]
    fn cross_shared_matches_spliced_cross_bitwise() {
        // Retrieval/serving geometry, odd shapes, and both degenerate sides;
        // the ns = 2, nd ≥ 8 entries drive the AVX2 score-walk arm (exact
        // vector chunk, multi-chunk, and ragged-tail column counts) against
        // the scalar interleaved reference on AVX2 hosts.
        for &(bs, ns, nd, d) in &[
            (64usize, 2usize, 10usize, 32usize),
            (3, 2, 13, 16),
            (2, 2, 8, 8),
            (1, 2, 16, 4),
            (2, 3, 5, 7),
            (4, 1, 3, 8),
            (1, 2, 0, 4),
            (2, 0, 4, 4),
        ] {
            let n = ns + nd;
            let mut seed = 131 + (bs * 7 + ns * 31 + nd) as u64;
            let qs = rand_tensor(Shape::d3(bs, ns.max(1), d), &mut seed);
            let ks = rand_tensor(Shape::d3(bs, ns.max(1), d), &mut seed);
            let vs = rand_tensor(Shape::d3(bs, ns.max(1), d), &mut seed);
            let qh = rand_tensor(Shape::d2(nd.max(1), d), &mut seed);
            let kh = rand_tensor(Shape::d2(nd.max(1), d), &mut seed);
            let vh = rand_tensor(Shape::d2(nd.max(1), d), &mut seed);
            let scale = 1.0 / (d as f32).sqrt();

            // Reference: splice the shared history under every slice's
            // static rows and run the interleaved structured kernel.
            let (fq, fk, fv) = (
                splice(qs.data(), qh.data(), bs, ns, nd, d),
                splice(ks.data(), kh.data(), bs, ns, nd, d),
                splice(vs.data(), vh.data(), bs, ns, nd, d),
            );
            let mut scratch = vec![0.0f32; bs * n * n];
            let mut spliced = vec![0.0f32; bs * n * d];
            attention_cross_fast_into(
                &fq,
                &fk,
                &fv,
                scale,
                bs,
                ns,
                nd,
                d,
                &mut scratch,
                &mut spliced,
            );

            let mut shared = vec![0.0f32; bs * n * d];
            attention_cross_shared_fast_into(
                qs.data(),
                ks.data(),
                vs.data(),
                qh.data(),
                kh.data(),
                vh.data(),
                scale,
                bs,
                ns,
                nd,
                d,
                &mut scratch,
                &mut shared,
            );
            for (i, (&a, &b)) in spliced.iter().zip(&shared).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "bs={bs} ns={ns} nd={nd} d={d}: element {i} diverges ({a} vs {b})"
                );
            }
        }
    }

    /// `[bs, ns + nd, d]`: the shared `[nd, d]` block `h` spliced under every
    /// slice's `[ns, d]` rows of `s` — the layout the dense kernels want.
    fn splice(s: &[f32], h: &[f32], bs: usize, ns: usize, nd: usize, d: usize) -> Vec<f32> {
        let n = ns + nd;
        let mut full = vec![0.0f32; bs * n * d];
        for b in 0..bs {
            full[b * n * d..b * n * d + ns * d].copy_from_slice(&s[b * ns * d..(b + 1) * ns * d]);
            full[b * n * d + ns * d..(b + 1) * n * d].copy_from_slice(&h[..nd * d]);
        }
        full
    }

    /// Asserts the structured exact kernel equals splice + dense masked
    /// `attention_into` bit for bit on `[qs, ks, vs]` × `[qh, kh, vh]`.
    fn assert_cross_shared_exact_matches_dense(
        stat: [&[f32]; 3],
        hist: [&[f32]; 3],
        [bs, ns, nd, d]: [usize; 4],
    ) {
        let n = ns + nd;
        let scale = 1.0 / (d as f32).sqrt();
        let [fq, fk, fv] = [0, 1, 2].map(|i| splice(stat[i], hist[i], bs, ns, nd, d));
        let mut scratch = vec![0.0f32; bs * n * n];
        let mut dense = vec![0.0f32; bs * n * d];
        let mask = AttnMask::cross(ns, nd);
        attention_into(&fq, &fk, &fv, Some(&mask), scale, bs, n, d, &mut scratch, &mut dense);

        // Right-sized scratch: the structured kernel's own contract.
        let mut scratch = vec![0.0f32; bs * ns * nd];
        let mut structured = vec![f32::NAN; bs * n * d];
        attention_cross_shared_into(
            stat[0],
            stat[1],
            stat[2],
            hist[0],
            hist[1],
            hist[2],
            scale,
            bs,
            ns,
            nd,
            d,
            &mut scratch,
            &mut structured,
        );
        for (i, (&a, &b)) in dense.iter().zip(&structured).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "bs={bs} ns={ns} nd={nd} d={d}: element {i} diverges ({a} vs {b})"
            );
        }
    }

    #[test]
    fn cross_shared_exact_matches_dense_masked_exact_bitwise() {
        // Serving and retrieval geometry, odd shapes, an exact vector chunk
        // and a ragged tail of history columns (nd = 8, 16 / 13, 20), a
        // width with a ragged lane tail (d = 7), and both empty sides. CI
        // runs this under the default, `SEQFM_SIMD=scalar` and
        // `SEQFM_WORKERS=4` arms (the first shape clears the fan-out
        // threshold, so the last one partitions it across the pool).
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
            assert_cross_shared_exact_matches_dense(
                [stat[0].data(), stat[1].data(), stat[2].data()],
                [hist[0].data(), hist[1].data(), hist[2].data()],
                [bs, ns, nd, d],
            );
        }
    }

    #[test]
    fn cross_shared_exact_skips_underflowed_weights_like_dense() {
        // One admitted score per row sits ≈ 200 below the row max, so its
        // softmax weight underflows to exactly 0.0 — and the value row it
        // would have weighted is +∞. The dense `nn` product skips
        // `w == 0.0`; a kernel that multiplied instead would turn 0·∞ into
        // NaN. Both admitted blocks get such a column.
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
        assert_cross_shared_exact_matches_dense(stat_d, hist_d, [bs, ns, nd, d]);

        // The skip is what keeps those rows finite: static rows never
        // absorb column j's ∞, and history row r never absorbs column 0's.
        let n = ns + nd;
        let mut scratch = vec![0.0f32; bs * ns * nd];
        let mut out = vec![0.0f32; bs * n * d];
        attention_cross_shared_into(
            stat_d[0],
            stat_d[1],
            stat_d[2],
            hist_d[0],
            hist_d[1],
            hist_d[2],
            1.0 / (d as f32).sqrt(),
            bs,
            ns,
            nd,
            d,
            &mut scratch,
            &mut out,
        );
        for b in 0..bs {
            let slice = &out[b * n * d..(b + 1) * n * d];
            assert!(slice[..ns * d].iter().all(|v| v.is_finite()), "slice {b}: static rows");
            let hist_row = &slice[(ns + r) * d..(ns + r + 1) * d];
            assert!(hist_row.iter().all(|v| v.is_finite()), "slice {b}: history row {r}");
        }
    }

    #[test]
    fn pair_fast_matches_dense_fast_bitwise() {
        for &(bs, d) in &[(100usize, 32usize), (3, 7), (1, 1), (4, 16)] {
            let n = 2;
            let mut seed = 19 + (bs * 13 + d) as u64;
            let q = rand_tensor(Shape::d3(bs, n, d), &mut seed);
            let k = rand_tensor(Shape::d3(bs, n, d), &mut seed);
            let v = rand_tensor(Shape::d3(bs, n, d), &mut seed);
            let scale = 1.0 / (d as f32).sqrt();

            let mut scratch = vec![0.0f32; bs * n * n];
            let mut dense = vec![0.0f32; bs * n * d];
            attention_fast_into(
                q.data(),
                k.data(),
                v.data(),
                None,
                scale,
                bs,
                n,
                d,
                &mut scratch,
                &mut dense,
            );
            let mut paired = vec![0.0f32; bs * n * d];
            attention_pair_fast_into(q.data(), k.data(), v.data(), scale, bs, d, &mut paired);
            for (i, (&a, &b)) in dense.iter().zip(&paired).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "bs={bs} d={d}: element {i} diverges ({a} vs {b})"
                );
            }
        }
    }
}
