//! Rank-2 matrix multiplication kernels.
//!
//! Three transpose flavours are provided because reverse-mode autodiff needs
//! all of them: for `C = A·B`, the backward pass computes `dA = dC·Bᵀ`
//! ([`matmul_nt`]) and `dB = Aᵀ·dC` ([`matmul_tn`]).
//!
//! ## Two implementations, one bit pattern
//!
//! Each flavour exists twice: a [`naive`] reference kernel (simple loops,
//! the semantic oracle) and a cache-blocked [`tiled`] kernel that packs a
//! `k × NR` panel of `B` into the thread-local workspace arena
//! ([`crate::workspace`]) and walks the output in `MR × NR` register tiles.
//! The tiled kernels hold each output element in a register across the
//! whole `k` loop instead of streaming it through memory once per `k` step,
//! and the packed panel makes the inner loop a contiguous, branch-free
//! multiply-add over `NR` lanes — that is where the single-core speedup
//! comes from. All three flavours (and the structured attention kernel)
//! share one safe, const-generic inner loop, `chain_tile`, which the
//! compiler vectorises for the build target; there is no per-CPU body to
//! choose between. A matrix-vector `nn` product (`n == 1`, the model's
//! output head) has no column lanes to run across, so its tile runs across
//! rows instead — eight rows' chains in flight, no panel to pack.
//!
//! **Bit-identity invariant**: for every output element `c[i,j]`, both
//! implementations perform *exactly* the same sequence of f32 operations —
//! the `k`-accumulation order is ascending `p`, the padding-row skip
//! (`a == 0.0` in the `nn`/`tn` flavours) is preserved, and tiling only
//! changes *which element is worked on when*, never the per-element op
//! sequence. The `nn`/`tn` flavours additionally cache-block the reduction
//! depth at `KC` — bit-safe there because their micro-kernels round-trip
//! the `c` tile through memory between chunks (see the `KC` docs for why
//! `nt` is excluded). Tiled results are therefore bit-for-bit equal to naive ones
//! for any input (asserted exhaustively in `tests/tiled_parity.rs`), which
//! lets the dispatchers pick freely by shape without perturbing a single
//! logit.
//!
//! The `_into` entry points are additionally **row-partitioned** across the
//! global thread pool above a size threshold (see `kernels::dispatch`):
//! output rows are independent and each row's accumulation order is
//! unchanged, so parallel results are bit-for-bit identical to serial ones.

use super::dispatch::should_par;
use crate::{Shape, Tensor};

/// Register-tile height: output rows processed per micro-kernel call.
pub(crate) const MR: usize = 6;
/// Register-tile width: output columns held in accumulators per call (also
/// the packed panel width).
pub(crate) const NR: usize = 16;
/// Cache-block depth: the `nn`/`tn` tiled kernels split the `k` loop into
/// chunks of at most `KC`, so a packed panel never exceeds `KC × NR` floats
/// (16 KiB — L1-resident) no matter how deep the reduction is. Bit-safe for
/// those two flavours only: their micro-kernels *load* the `c` tile into
/// registers, accumulate ascending `p`, and *store* it back, so splitting
/// the `p` loop at a store/load boundary replays exactly the same
/// per-element f32 op sequence (an f32 round-trip through memory is exact).
/// The `nt` micro-kernel zero-initialises its accumulators and adds into
/// `c` once at the end — k-splitting it would turn one dot product into a
/// sum of partials with a different rounding order — so `nt` deliberately
/// packs its full-depth panel and is excluded from k-blocking.
const KC: usize = 256;

/// `true` when the packed/tiled path is worth its panel-packing overhead:
/// at least one full register tile of columns and enough total work to
/// amortise the pack. Purely a performance heuristic — both paths produce
/// identical bits.
fn tiled_worthwhile(m: usize, k: usize, n: usize) -> bool {
    n >= NR && m >= 2 && m * k * n >= 2048
}

/// `C[m,n] = A[m,k] · B[k,n]`.
///
/// # Panics
/// Panics if either operand is not rank 2 or the inner dimensions disagree.
pub fn matmul_nn(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul_nn lhs");
    let (k2, n) = dims2(b, "matmul_nn rhs");
    assert_eq!(k, k2, "matmul_nn inner dim mismatch: {} vs {}", a.shape(), b.shape());
    let mut out = Tensor::zeros(Shape::d2(m, n));
    matmul_nn_into(a.data(), b.data(), out.data_mut(), m, k, n);
    out
}

/// `C[m,n] = A[m,k] · B[n,k]ᵀ`.
///
/// # Panics
/// Panics if either operand is not rank 2 or the inner dimensions disagree.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul_nt lhs");
    let (n, k2) = dims2(b, "matmul_nt rhs");
    assert_eq!(k, k2, "matmul_nt inner dim mismatch: {} vs {}", a.shape(), b.shape());
    let mut out = Tensor::zeros(Shape::d2(m, n));
    matmul_nt_into(a.data(), b.data(), out.data_mut(), m, k, n);
    out
}

/// `C[m,n] = A[k,m]ᵀ · B[k,n]`.
///
/// # Panics
/// Panics if either operand is not rank 2 or the inner dimensions disagree.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a, "matmul_tn lhs");
    let (k2, n) = dims2(b, "matmul_tn rhs");
    assert_eq!(k, k2, "matmul_tn inner dim mismatch: {} vs {}", a.shape(), b.shape());
    let mut out = Tensor::zeros(Shape::d2(m, n));
    matmul_tn_into(a.data(), b.data(), out.data_mut(), m, k, n);
    out
}

/// Raw slice kernel: `c[m,n] += a[m,k] · b[k,n]`. Accumulates into `c`.
/// Row-partitioned across the global pool above the dispatch threshold and
/// cache-blocked above the tile threshold; results are bit-identical to the
/// serial naive loop either way.
pub fn matmul_nn_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if should_par(m * k * n, m) {
        par_rows(a, c, k, n, |a_rows, c_rows, rows| nn_block(a_rows, b, c_rows, rows, k, n));
    } else {
        nn_block(a, b, c, m, k, n);
    }
}

/// Raw slice kernel: `c[m,n] += a[m,k] · b[n,k]ᵀ`. Accumulates into `c`.
/// Partitioned and blocked like [`matmul_nn_into`].
///
/// The parallel tiled path packs every full-width K-panel **once** in the
/// caller's workspace and shares the pack read-only across the row-chunk
/// tasks, instead of letting each chunk re-pack the whole of `b`. Panel
/// contents are byte-identical to the per-chunk packs, so results stay
/// bit-for-bit equal to the serial kernel.
pub fn matmul_nt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    if should_par(m * k * n, m) {
        if tiled_worthwhile(m, k, n) {
            crate::workspace::with_thread(|ws| {
                let mut panels = ws.take((n / NR) * k * NR);
                tiled::pack_nt_panels(b, &mut panels, k, n);
                let panels: &[f32] = &panels;
                par_rows(a, c, k, n, |a_rows, c_rows, rows| {
                    tiled::matmul_nt_packed_into(a_rows, b, panels, c_rows, rows, k, n)
                });
            });
        } else {
            par_rows(a, c, k, n, |a_rows, c_rows, rows| nt_block(a_rows, b, c_rows, rows, k, n));
        }
    } else {
        nt_block(a, b, c, m, k, n);
    }
}

/// Raw slice kernel: `c[m,n] += a[k,m]ᵀ · b[k,n]`. Accumulates into `c`.
/// Partitioned over **output** rows (the lhs is walked column-wise, so each
/// task re-scans `a` but owns a disjoint block of `c`); per-element
/// accumulation order over `p` is unchanged, keeping results bit-identical.
pub fn matmul_tn_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if should_par(m * k * n, m) {
        seqfm_parallel::par_units(seqfm_parallel::global(), [c], [n], |i0, [c_rows]| {
            tn_block(a, b, c_rows, i0, c_rows.len() / n, m, k, n)
        });
    } else {
        tn_block(a, b, c, 0, m, m, k, n);
    }
}

/// Serial `nn` over a row block: tiled when worthwhile — a matrix-vector
/// product always is, its tile needs no packed panel — else naive.
fn nn_block(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    if n == 1 || tiled_worthwhile(m, k, n) {
        tiled::matmul_nn_into(a, b, c, m, k, n);
    } else {
        naive::matmul_nn_into(a, b, c, m, k, n);
    }
}

/// Serial `nt` over a row block: tiled when worthwhile, else naive.
fn nt_block(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    if tiled_worthwhile(m, k, n) {
        tiled::matmul_nt_into(a, b, c, m, k, n);
    } else {
        naive::matmul_nt_into(a, b, c, m, k, n);
    }
}

/// Serial `tn` over output rows `[i0, i0 + rows)` (with `c` holding exactly
/// those rows): tiled when worthwhile, else naive.
#[allow(clippy::too_many_arguments)]
fn tn_block(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    i0: usize,
    rows: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    if tiled_worthwhile(rows, k, n) {
        tiled::matmul_tn_rows_into(a, b, c, i0, rows, m, k, n);
    } else {
        naive::matmul_tn_rows_into(a, b, c, i0, rows, m, k, n);
    }
}

/// Naive reference kernels: the straight loops that define the bit-exact
/// semantics of every matmul in this crate. The tiled kernels (and the
/// parallel partitioning) must — and do — reproduce these bit for bit; the
/// kernels bench measures the tiled speedup against them.
pub mod naive {
    /// Reference `c[m,n] += a[m,k] · b[k,n]` — `ikj` loop order with the
    /// padding-row skip (`a == 0.0` contributes nothing and is skipped).
    pub fn matmul_nn_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        nn_cols(a, b, c, m, k, n, 0);
    }

    /// [`matmul_nn_into`] restricted to output columns `[j_lo, n)` — the
    /// tiled kernel's column-tail path. Per-element op order is identical
    /// to the full kernel's.
    pub(super) fn nn_cols(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        j_lo: usize,
    ) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[i * n + j_lo..(i + 1) * n];
            for (p, &a_ip) in a_row.iter().enumerate() {
                if a_ip == 0.0 {
                    continue; // embeddings of padding rows are exactly zero
                }
                let b_row = &b[p * n + j_lo..(p + 1) * n];
                for (c_el, &b_el) in c_row.iter_mut().zip(b_row) {
                    *c_el += a_ip * b_el;
                }
            }
        }
    }

    /// Reference `c[m,n] += a[m,k] · b[n,k]ᵀ` — a register dot product per
    /// output element, added into `c` once.
    pub fn matmul_nt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        nt_cols(a, b, c, m, k, n, 0);
    }

    /// [`matmul_nt_into`] restricted to output columns `[j_lo, n)`.
    pub(super) fn nt_cols(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        j_lo: usize,
    ) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[i * n + j_lo..(i + 1) * n];
            for (jt, c_el) in c_row.iter_mut().enumerate() {
                let j = j_lo + jt;
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&x, &y) in a_row.iter().zip(b_row) {
                    acc += x * y;
                }
                *c_el += acc;
            }
        }
    }

    /// Reference `c[m,n] += a[k,m]ᵀ · b[k,n]` — `p`-outer loop order with
    /// the `a == 0.0` skip.
    pub fn matmul_tn_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        matmul_tn_rows_into(a, b, c, 0, m, m, k, n);
    }

    /// Reference `tn` over output rows `[i0, i0 + rows)` only; `c` holds
    /// exactly those rows. The `p`-outer loop order of the full kernel is
    /// preserved.
    #[allow(clippy::too_many_arguments)]
    pub fn matmul_tn_rows_into(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        i0: usize,
        rows: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        tn_cols(a, b, c, i0, rows, m, k, n, 0);
    }

    /// [`matmul_tn_rows_into`] restricted to output columns `[j_lo, n)`.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn tn_cols(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        i0: usize,
        rows: usize,
        m: usize,
        k: usize,
        n: usize,
        j_lo: usize,
    ) {
        for p in 0..k {
            let a_row = &a[p * m..(p + 1) * m];
            let b_row = &b[p * n + j_lo..(p + 1) * n];
            for (ri, &a_pi) in a_row[i0..i0 + rows].iter().enumerate() {
                if a_pi == 0.0 {
                    continue;
                }
                let c_row = &mut c[ri * n + j_lo..(ri + 1) * n];
                for (c_el, &b_el) in c_row.iter_mut().zip(b_row) {
                    *c_el += a_pi * b_el;
                }
            }
        }
    }
}

/// One `R × L` block of independent multiply-add chains — the single inner
/// loop behind every tiled matmul flavour and the structured attention
/// kernel: `acc[r][t] += a(r, p) · b[p·ldb + t]` for ascending `p < depth`,
/// multiply and add kept separate, steps with `a(r, p) == 0.0` skipped when
/// `SKIP`. `a(r, p)` is `a[r·lda + p]`, or `a[p·lda + r]` when `TRANS` (the
/// lhs read down a column). `R` and `L` are constants, so the accumulators
/// stay in registers across the whole `p` walk and the lane loop vectorises
/// to whatever the build target has (`vmulps` + `vaddps` under `x86-64-v3`,
/// never fused). Lanes are independent output elements and each keeps its
/// own ascending chain, so neither the vector width nor the tile shape can
/// change a bit.
#[inline(always)]
pub(super) fn chain_tile<const R: usize, const L: usize, const TRANS: bool, const SKIP: bool>(
    mut acc: [[f32; L]; R],
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    depth: usize,
) -> [[f32; L]; R] {
    // Row-major lhs: slice every row once, outside the `p` walk. `TRANS`: a
    // step's `R` elements are contiguous and are sliced per step instead.
    let rows: [&[f32]; R] =
        std::array::from_fn(|r| if TRANS { &a[..0] } else { &a[r * lda..r * lda + depth] });
    for p in 0..depth {
        // Copied out, the step's rhs lanes are loaded once and held in
        // registers for all `R` rows (measured: `nn` −10 % at d = 32).
        let mut bp = [0.0f32; L];
        bp.copy_from_slice(&b[p * ldb..p * ldb + L]);
        let col = if TRANS { &a[p * lda..p * lda + R] } else { &a[..0] };
        for r in 0..R {
            let ap = if TRANS { col[r] } else { rows[r][p] };
            if !SKIP || ap != 0.0 {
                for t in 0..L {
                    acc[r][t] += ap * bp[t];
                }
            }
        }
    }
    acc
}

/// Cache-blocked, register-tiled kernels with `B` panels packed into the
/// thread-local workspace arena. Bit-identical to [`naive`] — see the
/// module docs for the invariant and `tests/tiled_parity.rs` for the proof.
pub mod tiled {
    use super::{chain_tile, naive, KC, MR, NR};
    use crate::workspace;

    /// Packs columns `[j0, j0 + NR)` of rows `[p0, p0 + kc)` of the
    /// row-major `[k, n]` matrix `b` into `panel` in `p`-major order:
    /// `panel[p·NR + t] = b[(p0 + p)·n + j0 + t]`.
    fn pack_panel_cols(b: &[f32], panel: &mut [f32], p0: usize, kc: usize, n: usize, j0: usize) {
        for p in 0..kc {
            let src = (p0 + p) * n + j0;
            panel[p * NR..(p + 1) * NR].copy_from_slice(&b[src..src + NR]);
        }
    }

    /// Packs rows `[j0, j0 + NR)` of the row-major `[n, k]` matrix `b`
    /// (i.e. columns of `bᵀ`) into `panel` in `p`-major order:
    /// `panel[p·NR + t] = b[(j0 + t)·k + p]`.
    fn pack_panel_rows(b: &[f32], panel: &mut [f32], k: usize, j0: usize) {
        for t in 0..NR {
            let src = &b[(j0 + t) * k..(j0 + t + 1) * k];
            for (p, &v) in src.iter().enumerate() {
                panel[p * NR + t] = v;
            }
        }
    }

    /// One register tile of `rows ≤ MR` output rows by `NR` columns: `c` is
    /// anchored at the tile's first element (row stride `n`), `a` at the
    /// lhs element of its first row and depth step, `panel` holds `depth`
    /// packed rows. The three flavours differ only in the flags:
    ///
    /// * `TRANS` — the lhs is read down a column (`tn`), see [`chain_tile`];
    /// * `SEED` — the accumulators start from the `c` tile and are stored
    ///   back (`nn`/`tn`: what makes `KC` chunking exact), instead of
    ///   starting from zero and being added into `c` once (`nt`'s dot
    ///   product);
    /// * `SKIP` — the naive `nn`/`tn` kernels' `a == 0.0` skip.
    ///
    /// The row count picks a const-generic body, so a short last tile keeps
    /// its accumulators in registers too.
    fn micro<const TRANS: bool, const SEED: bool, const SKIP: bool>(
        rows: usize,
        a: &[f32],
        lda: usize,
        panel: &[f32],
        depth: usize,
        c: &mut [f32],
        n: usize,
    ) {
        match rows {
            1 => micro_rows::<1, TRANS, SEED, SKIP>(a, lda, panel, depth, c, n),
            2 => micro_rows::<2, TRANS, SEED, SKIP>(a, lda, panel, depth, c, n),
            3 => micro_rows::<3, TRANS, SEED, SKIP>(a, lda, panel, depth, c, n),
            4 => micro_rows::<4, TRANS, SEED, SKIP>(a, lda, panel, depth, c, n),
            5 => micro_rows::<5, TRANS, SEED, SKIP>(a, lda, panel, depth, c, n),
            MR => micro_rows::<MR, TRANS, SEED, SKIP>(a, lda, panel, depth, c, n),
            _ => unreachable!("a register tile has 1..={MR} rows, got {rows}"),
        }
    }

    /// [`micro`] at a fixed row count.
    fn micro_rows<const R: usize, const TRANS: bool, const SEED: bool, const SKIP: bool>(
        a: &[f32],
        lda: usize,
        panel: &[f32],
        depth: usize,
        c: &mut [f32],
        n: usize,
    ) {
        // Rows are indexed, not `chunks(n)`-ed: the chunk count costs an
        // integer division per tile.
        let mut acc = [[0.0f32; NR]; R];
        if SEED {
            for (r, acc_r) in acc.iter_mut().enumerate() {
                acc_r.copy_from_slice(&c[r * n..r * n + NR]);
            }
        }
        let acc = chain_tile::<R, NR, TRANS, SKIP>(acc, a, lda, panel, NR, depth);
        for (r, acc_r) in acc.iter().enumerate() {
            let c_row = &mut c[r * n..r * n + NR];
            if SEED {
                c_row.copy_from_slice(acc_r);
            } else {
                for (c_el, &v) in c_row.iter_mut().zip(acc_r) {
                    *c_el += v;
                }
            }
        }
    }

    /// The `nn`/`tn` walk over the full-width column panels of `b`, k-blocked
    /// at `KC`: pack one chunk of one panel, run every row tile against it,
    /// move on. Output row `i`, depth `p` reads `a[i·lda + p]`, or
    /// `a[p·lda + i]` when `TRANS`.
    fn kc_blocked<const TRANS: bool>(
        a: &[f32],
        lda: usize,
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        workspace::with_thread(|ws| {
            let mut panel = ws.take(k.min(KC) * NR);
            for j0 in (0..n / NR).map(|t| t * NR) {
                for p0 in (0..k).step_by(KC) {
                    let kc = (k - p0).min(KC);
                    pack_panel_cols(b, &mut panel, p0, kc, n, j0);
                    for i0 in (0..m).step_by(MR) {
                        let (rows, c_tile) = ((m - i0).min(MR), &mut c[i0 * n + j0..]);
                        let a_tile = if TRANS { &a[p0 * lda + i0..] } else { &a[i0 * lda + p0..] };
                        micro::<TRANS, true, true>(rows, a_tile, lda, &panel, kc, c_tile, n);
                    }
                }
            }
        });
    }

    /// Every row tile of `nt` against one packed full-depth panel.
    fn nt_panel(a: &[f32], panel: &[f32], c: &mut [f32], j0: usize, m: usize, k: usize, n: usize) {
        for i0 in (0..m).step_by(MR) {
            let (rows, c_tile) = ((m - i0).min(MR), &mut c[i0 * n + j0..]);
            micro::<false, false, false>(rows, &a[i0 * k..], k, panel, k, c_tile, n);
        }
    }

    /// Output rows per tile of the `n == 1` walk: eight independent chains
    /// cover the add latency a single row's chain is bound by.
    const MV: usize = 8;

    /// `c[m] += a[m,k] · b[k]` — the `n == 1` case of `nn` (the model's
    /// output head, Eq. 18). One output element per row leaves no lanes to
    /// run across columns, and a row's chain is serial by definition, so the
    /// tile runs across *rows* instead: `MV` rows' seeded ascending-`p`
    /// chains (with the `a == 0.0` skip) in flight at once, `b` read in
    /// place — a `[k, 1]` matrix is its own packed panel. Rows past the last
    /// full tile take the naive loop.
    fn matvec_nn_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize) {
        let full = m - m % MV;
        for (t, c_tile) in c[..full].chunks_exact_mut(MV).enumerate() {
            let seed: [[f32; 1]; MV] = std::array::from_fn(|r| [c_tile[r]]);
            let acc = chain_tile::<MV, 1, false, true>(seed, &a[t * MV * k..], k, b, 1, k);
            for (c_el, acc_r) in c_tile.iter_mut().zip(acc) {
                *c_el = acc_r[0];
            }
        }
        naive::matmul_nn_into(&a[full * k..m * k], b, &mut c[full..m], m - full, k, 1);
    }

    /// Tiled `c[m,n] += a[m,k] · b[k,n]`, k-blocked at `KC`.
    pub fn matmul_nn_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        if n == 1 {
            return matvec_nn_into(a, b, c, m, k);
        }
        kc_blocked::<false>(a, k, b, c, m, k, n);
        let j_tail = n - n % NR;
        if j_tail < n {
            naive::nn_cols(a, b, c, m, k, n, j_tail);
        }
    }

    /// Tiled `c[m,n] += a[m,k] · b[n,k]ᵀ`.
    pub fn matmul_nt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        workspace::with_thread(|ws| {
            let mut panel = ws.take(k * NR);
            for j0 in (0..n / NR).map(|t| t * NR) {
                pack_panel_rows(b, &mut panel, k, j0);
                nt_panel(a, &panel, c, j0, m, k, n);
            }
        });
        let j_tail = n - n % NR;
        if j_tail < n {
            naive::nt_cols(a, b, c, m, k, n, j_tail);
        }
    }

    /// Packs **every** full-width K-panel of the row-major `[n, k]` matrix
    /// `b` into `panels` (`⌊n/NR⌋` panels of `k × NR` floats, `p`-major
    /// within each). One pack serves all row chunks of a parallel `nt` —
    /// the per-chunk packs this replaces produced byte-identical panels, so
    /// sharing them is invisible to the output bits.
    pub fn pack_nt_panels(b: &[f32], panels: &mut [f32], k: usize, n: usize) {
        for t in 0..n / NR {
            pack_panel_rows(b, &mut panels[t * k * NR..(t + 1) * k * NR], k, t * NR);
        }
    }

    /// Tiled `c[m,n] += a[m,k] · b[n,k]ᵀ` over pre-packed K-panels from
    /// [`pack_nt_panels`]. `b` is still needed for the `n % NR` column tail,
    /// which has no panel. Bit-identical to [`matmul_nt_into`].
    pub fn matmul_nt_packed_into(
        a: &[f32],
        b: &[f32],
        panels: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        debug_assert!(panels.len() >= (n / NR) * k * NR);
        for t in 0..n / NR {
            nt_panel(a, &panels[t * k * NR..(t + 1) * k * NR], c, t * NR, m, k, n);
        }
        let j_tail = n - n % NR;
        if j_tail < n {
            naive::nt_cols(a, b, c, m, k, n, j_tail);
        }
    }

    /// Tiled `c[m,n] += a[k,m]ᵀ · b[k,n]`.
    pub fn matmul_tn_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        matmul_tn_rows_into(a, b, c, 0, m, m, k, n);
    }

    /// Tiled `tn` over output rows `[i0, i0 + rows)` only (`c` holds
    /// exactly those rows) — the shape the row-partitioned parallel path
    /// hands out.
    #[allow(clippy::too_many_arguments)]
    pub fn matmul_tn_rows_into(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        i0: usize,
        rows: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        // Shifting the lhs by `i0` columns makes local row `r` read
        // `a[p·m + i0 + r]`; with `k == 0` there is nothing to shift.
        kc_blocked::<true>(a.get(i0..).unwrap_or_default(), m, b, c, rows, k, n);
        let j_tail = n - n % NR;
        if j_tail < n {
            naive::tn_cols(a, b, c, i0, rows, m, k, n, j_tail);
        }
    }
}

/// Fans `m` rows of `a`/`c` out over the global pool via
/// [`seqfm_parallel::par_units`], calling `f(a_rows, c_rows, rows)` per
/// contiguous block.
fn par_rows(
    a: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
    f: impl Fn(&[f32], &mut [f32], usize) + Sync,
) {
    seqfm_parallel::par_units(seqfm_parallel::global(), [c], [n], |i0, [c_rows]| {
        let rows = c_rows.len() / n;
        f(&a[i0 * k..(i0 + rows) * k], c_rows, rows)
    });
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(t.shape().rank(), 2, "{what} must be rank 2, got {}", t.shape());
    (t.shape().dim(0), t.shape().dim(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_close, rand_tensor};

    fn t2(r: usize, c: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(Shape::d2(r, c), v.to_vec())
    }

    #[test]
    fn nn_hand_checked() {
        // [1 2; 3 4] x [5 6; 7 8] = [19 22; 43 50]
        let a = t2(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = t2(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let c = matmul_nn(&a, &b);
        assert_close(c.data(), &[19.0, 22.0, 43.0, 50.0], 1e-6);
    }

    #[test]
    fn nn_rectangular() {
        let a = t2(2, 3, &[1.0, 0.0, 2.0, -1.0, 3.0, 1.0]);
        let b = t2(3, 2, &[3.0, 1.0, 2.0, 1.0, 1.0, 0.0]);
        let c = matmul_nn(&a, &b);
        assert_close(c.data(), &[5.0, 1.0, 4.0, 2.0], 1e-6);
        assert_eq!(c.shape(), Shape::d2(2, 2));
    }

    #[test]
    fn nt_equals_nn_with_transposed_rhs() {
        let a = t2(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t2(3, 4, &(0..12).map(|x| x as f32 * 0.5).collect::<Vec<_>>());
        // Manually transpose b -> bt [4,3]
        let mut bt = vec![0.0; 12];
        for r in 0..3 {
            for c in 0..4 {
                bt[c * 3 + r] = b.data()[r * 4 + c];
            }
        }
        let bt = t2(4, 3, &bt);
        let via_nn = matmul_nn(&a, &b);
        let via_nt = matmul_nt(&a, &bt);
        assert_close(via_nn.data(), via_nt.data(), 1e-5);
    }

    #[test]
    fn tn_equals_nn_with_transposed_lhs() {
        let a = t2(3, 2, &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]); // aᵀ = [1 2 3; 4 5 6]
        let b = t2(3, 2, &[1.0, -1.0, 0.5, 2.0, 3.0, 0.0]);
        let at = t2(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let via_tn = matmul_tn(&a, &b);
        let via_nn = matmul_nn(&at, &b);
        assert_close(via_tn.data(), via_nn.data(), 1e-5);
    }

    #[test]
    fn identity_is_noop() {
        let a = t2(3, 3, &(0..9).map(|x| x as f32).collect::<Vec<_>>());
        let mut eye = Tensor::zeros(Shape::d2(3, 3));
        for i in 0..3 {
            eye.data_mut()[i * 3 + i] = 1.0;
        }
        assert_close(matmul_nn(&a, &eye).data(), a.data(), 1e-6);
        assert_close(matmul_nn(&eye, &a).data(), a.data(), 1e-6);
    }

    #[test]
    fn tiled_kernels_match_naive_bitwise_at_serving_shapes() {
        // d = 32 and 64 with m around a candidate-expansion batch — the
        // shapes the serving path actually runs (see benches/kernels.rs).
        for &(m, k, n) in &[(100usize, 32usize, 32usize), (48, 64, 64), (37, 32, 50)] {
            let mut seed = 91;
            let a = rand_tensor(Shape::d2(m, k), &mut seed);
            let b = rand_tensor(Shape::d2(k, n), &mut seed);
            let bt = rand_tensor(Shape::d2(n, k), &mut seed);
            let at = rand_tensor(Shape::d2(k, m), &mut seed);
            let mut got = vec![0.5f32; m * n]; // non-zero: accumulation must match too
            let mut want = vec![0.5f32; m * n];
            tiled::matmul_nn_into(a.data(), b.data(), &mut got, m, k, n);
            naive::matmul_nn_into(a.data(), b.data(), &mut want, m, k, n);
            assert_eq!(got, want, "nn {m}x{k}x{n}");
            got.fill(-1.25);
            want.fill(-1.25);
            tiled::matmul_nt_into(a.data(), bt.data(), &mut got, m, k, n);
            naive::matmul_nt_into(a.data(), bt.data(), &mut want, m, k, n);
            assert_eq!(got, want, "nt {m}x{k}x{n}");
            got.fill(0.0);
            want.fill(0.0);
            tiled::matmul_tn_into(at.data(), b.data(), &mut got, m, k, n);
            naive::matmul_tn_into(at.data(), b.data(), &mut want, m, k, n);
            assert_eq!(got, want, "tn {m}x{k}x{n}");
        }
    }

    #[test]
    fn tiled_preserves_the_padding_row_skip_semantics() {
        // A zero row in `a` must be skipped, not multiplied — with an inf in
        // `b`, skipping yields finite output while multiplying would give
        // NaN. Bit-identity demands the tiled path skip exactly like naive.
        let (m, k, n) = (8usize, 4usize, 16usize);
        let a = vec![0.0f32; m * k]; // all padding rows
        let mut b = vec![1.0f32; k * n];
        b[5] = f32::INFINITY;
        let mut got = vec![2.0f32; m * n];
        let mut want = vec![2.0f32; m * n];
        tiled::matmul_nn_into(&a, &b, &mut got, m, k, n);
        naive::matmul_nn_into(&a, &b, &mut want, m, k, n);
        assert_eq!(got, want);
        assert!(got.iter().all(|v| v.is_finite()), "zero-skip lost: {got:?}");
        // Same skip in `tn`, whose lhs is `[k, m]` — all zeros either way.
        tiled::matmul_tn_into(&a, &b, &mut got, m, k, n);
        naive::matmul_tn_into(&a, &b, &mut want, m, k, n);
        assert_eq!(got, want);
        assert!(got.iter().all(|v| v.is_finite()), "tn zero-skip lost: {got:?}");
    }

    #[test]
    #[should_panic(expected = "inner dim mismatch")]
    fn nn_rejects_mismatch() {
        let a = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d2(2, 2));
        let _ = matmul_nn(&a, &b);
    }

    #[test]
    #[should_panic(expected = "must be rank 2")]
    fn nn_rejects_rank3() {
        let a = Tensor::zeros(Shape::d3(1, 2, 3));
        let b = Tensor::zeros(Shape::d2(3, 2));
        let _ = matmul_nn(&a, &b);
    }
}
