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
//! ([`crate::workspace`]) and walks the output in `MR × NR` register tiles
//! (for `nn`, tiles of up to `MR` rows taken from a list, see below).
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
//! `nt` is excluded). The same round trip lets them decide the skip once per
//! lhs row (`nn`) or per depth step (`tn`) instead of once per multiply: the
//! naive loop skips every multiply of an all-zero row or step, which leaves
//! `c` as it was, so the tiled walk never visits one; a zero-free row or
//! chunk of steps could never fire the skip, so it runs the chain without
//! the test; only rows or chunks that mix zeros with non-zeros keep the
//! per-element test. `±0.0` counts as zero and NaN / `±∞` do not, exactly as
//! in the naive predicate. Tiled results are therefore bit-for-bit equal to
//! naive ones for any input (asserted exhaustively in
//! `tests/tiled_parity.rs`), which lets the dispatchers pick freely by shape
//! without perturbing a single logit.
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
/// A `tn` chunk packs only its live (not all-zero) depth steps. The `nt`
/// micro-kernel zero-initialises its accumulators and adds into `c` once at
/// the end — k-splitting it would turn one dot product into a sum of
/// partials with a different rounding order — so `nt` deliberately packs its
/// full-depth panel and is excluded from k-blocking.
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
/// kernel: `acc[r][t] += lhs(p)[r] · b[p·ldb + t]` for ascending
/// `p < depth`, multiply and add kept separate, steps with `lhs(p)[r] == 0.0`
/// skipped when `SKIP`. `lhs(p)` yields step `p`'s element of every row —
/// [`by_rows`] for row-major rows, a column picked by a step list for `tn`.
/// `R` and `L` are constants, so the accumulators stay in registers across
/// the whole `p` walk and the lane loop vectorises to whatever the build
/// target has (`vmulps` + `vaddps` under `x86-64-v3`, never fused). Lanes
/// are independent output elements and each keeps its own ascending chain,
/// so neither the vector width nor the tile shape can change a bit.
#[inline(always)]
pub(super) fn chain_tile<const R: usize, const L: usize, const SKIP: bool>(
    mut acc: [[f32; L]; R],
    lhs: impl Fn(usize) -> [f32; R],
    b: &[f32],
    ldb: usize,
    depth: usize,
) -> [[f32; L]; R] {
    for p in 0..depth {
        // Copied out, the step's rhs lanes are loaded once and held in
        // registers for all `R` rows (measured: `nn` −10 % at d = 32).
        let mut bp = [0.0f32; L];
        bp.copy_from_slice(&b[p * ldb..p * ldb + L]);
        let step = lhs(p);
        for r in 0..R {
            let ap = step[r];
            if !SKIP || ap != 0.0 {
                for t in 0..L {
                    acc[r][t] += ap * bp[t];
                }
            }
        }
    }
    acc
}

/// [`chain_tile`]'s lhs for `R` row-major rows, each sliced once to the
/// walk's depth: step `p` of row `r` is `rows[r][p]`.
#[inline(always)]
pub(super) fn by_rows<'a, const R: usize>(rows: [&'a [f32]; R]) -> impl Fn(usize) -> [f32; R] + 'a {
    move |p| std::array::from_fn(|r| rows[r][p])
}

/// Cache-blocked, register-tiled kernels with `B` panels packed into the
/// thread-local workspace arena. Bit-identical to [`naive`] — see the
/// module docs for the invariant and `tests/tiled_parity.rs` for the proof.
pub mod tiled {
    use super::{by_rows, chain_tile, naive, KC, MR, NR};
    use crate::workspace;

    /// Packs columns `[j0, j0 + NR)` of the listed rows of the row-major
    /// `[k, n]` matrix `b` into `panel`, one packed row per listed row in
    /// list order: `panel[q·NR + t] = b[steps[q]·n + j0 + t]`.
    fn pack_panel_cols(
        b: &[f32],
        panel: &mut [f32],
        steps: impl Iterator<Item = usize>,
        n: usize,
        j0: usize,
    ) {
        for (dst, p) in panel.chunks_exact_mut(NR).zip(steps) {
            dst.copy_from_slice(&b[p * n + j0..p * n + j0 + NR]);
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

    /// One register tile of `rows.len() ≤ MR` output rows by `NR` columns
    /// against `depth` packed panel rows: tile row `r` is row `rows[r]` of
    /// `c` (anchored at the tile's first column, row stride `n`). The three
    /// flavours differ only in the flags:
    ///
    /// * `TRANS` — `false` (`nn`, `nt`): row `i` reads its lhs along
    ///   `a[i·lda..]`, `a` anchored at the chunk's first step. `true` (`tn`):
    ///   the rows are [`ADJACENT`] (`c` and `a` anchored at the first) and the
    ///   lhs is read down a column through the `depth` listed `steps` — step
    ///   `q` of row `r` is `a[steps[q]·lda + r]`;
    /// * `SEED` — the accumulators start from the `c` tile and are stored
    ///   back (`nn`/`tn`: what makes `KC` chunking, and never visiting an
    ///   all-zero row or step, exact), instead of starting from zero and
    ///   being added into `c` once (`nt`'s dot product);
    /// * `SKIP` — the naive `nn`/`tn` kernels' `a == 0.0` skip, run only
    ///   where a row or chunk mixes zeros with non-zeros.
    ///
    /// The row count picks a const-generic body, so a short last tile keeps
    /// its accumulators in registers too. Inlined, an [`ADJACENT`] list folds
    /// into fixed row offsets (measured: `nt` +7 % time with the rows read
    /// from the list at run time).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn micro<const TRANS: bool, const SEED: bool, const SKIP: bool>(
        rows: &[u32],
        steps: &[u32],
        a: &[f32],
        lda: usize,
        panel: &[f32],
        depth: usize,
        c: &mut [f32],
        n: usize,
    ) {
        match rows.len() {
            1 => micro_rows::<1, TRANS, SEED, SKIP>(rows, steps, a, lda, panel, depth, c, n),
            2 => micro_rows::<2, TRANS, SEED, SKIP>(rows, steps, a, lda, panel, depth, c, n),
            3 => micro_rows::<3, TRANS, SEED, SKIP>(rows, steps, a, lda, panel, depth, c, n),
            4 => micro_rows::<4, TRANS, SEED, SKIP>(rows, steps, a, lda, panel, depth, c, n),
            5 => micro_rows::<5, TRANS, SEED, SKIP>(rows, steps, a, lda, panel, depth, c, n),
            MR => micro_rows::<MR, TRANS, SEED, SKIP>(rows, steps, a, lda, panel, depth, c, n),
            r => unreachable!("a register tile has 1..={MR} rows, got {r}"),
        }
    }

    /// [`micro`] at a fixed row count.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn micro_rows<const R: usize, const TRANS: bool, const SEED: bool, const SKIP: bool>(
        rows: &[u32],
        steps: &[u32],
        a: &[f32],
        lda: usize,
        panel: &[f32],
        depth: usize,
        c: &mut [f32],
        n: usize,
    ) {
        // Rows are indexed, not `chunks(n)`-ed: the chunk count costs an
        // integer division per tile.
        let at: [usize; R] = std::array::from_fn(|r| rows[r] as usize);
        let mut acc = [[0.0f32; NR]; R];
        if SEED {
            for (acc_r, &i) in acc.iter_mut().zip(&at) {
                acc_r.copy_from_slice(&c[i * n..i * n + NR]);
            }
        }
        let acc = if TRANS {
            let steps = &steps[..depth];
            let lhs = |q: usize| {
                let col = &a[steps[q] as usize * lda..][..R];
                std::array::from_fn(|r| col[r])
            };
            chain_tile::<R, NR, SKIP>(acc, lhs, panel, NR, depth)
        } else {
            let lhs = at.map(|i| &a[i * lda..i * lda + depth]);
            chain_tile::<R, NR, SKIP>(acc, by_rows(lhs), panel, NR, depth)
        };
        for (acc_r, &i) in acc.iter().zip(&at) {
            let c_row = &mut c[i * n..i * n + NR];
            if SEED {
                c_row.copy_from_slice(acc_r);
            } else {
                for (c_el, &v) in c_row.iter_mut().zip(acc_r) {
                    *c_el += v;
                }
            }
        }
    }

    /// The rows of a tile of adjacent rows (`nt`, `tn`), anchored at its
    /// first.
    const ADJACENT: [u32; MR] = [0, 1, 2, 3, 4, 5];

    /// How many of `v`'s elements are `±0.0` — the naive `nn` / `tn` skip
    /// predicate, so NaN and `±∞` count as non-zero.
    fn zeros(v: &[f32]) -> usize {
        v.iter().map(|&x| u32::from(x == 0.0)).sum::<u32>() as usize
    }

    /// Rows per block of the `nn` walk: a block's row lists live on the
    /// stack.
    const RB: usize = 128;

    /// The `nn` walk, `RB` rows at a time. Each lhs row is classified once:
    /// an all-zero row (padding) is never visited — under `SEED`, skipping
    /// every step of a row leaves its `c` row untouched, so not visiting it
    /// is exact; zero-free rows run the branch-free chain; only rows that
    /// mix zeros with non-zeros keep the per-element skip. Tiles are built
    /// from the two lists, so a padding boundary never splits one. Then per
    /// `KC` chunk and full-width column panel: pack, run every tile.
    fn nn_blocked(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        workspace::with_thread(|ws| {
            let mut panel = ws.take(k.min(KC) * NR);
            let mut order = [0u32; RB];
            for r0 in (0..m).step_by(RB) {
                let (a, c) = (&a[r0 * k..], &mut c[r0 * n..]);
                // The block's zero-free rows fill `order` from the front, its
                // mixed ones from the back.
                let (mut dense, mut mixed) = (0, RB);
                for i in 0..(m - r0).min(RB) {
                    let z = zeros(&a[i * k..(i + 1) * k]);
                    if z == 0 {
                        order[dense] = i as u32;
                        dense += 1;
                    } else if z < k {
                        mixed -= 1;
                        order[mixed] = i as u32;
                    }
                }
                for p0 in (0..k).step_by(KC) {
                    let kc = (k - p0).min(KC);
                    for j0 in (0..n / NR).map(|t| t * NR) {
                        pack_panel_cols(b, &mut panel, p0..p0 + kc, n, j0);
                        let (a, c) = (&a[p0..], &mut c[j0..]);
                        for t in order[..dense].chunks(MR) {
                            micro::<false, true, false>(t, &[], a, k, &panel, kc, c, n);
                        }
                        for t in order[mixed..].chunks(MR) {
                            micro::<false, true, true>(t, &[], a, k, &panel, kc, c, n);
                        }
                    }
                }
            }
        });
    }

    /// The `tn` walk over output rows `[0, rows)` (`a` anchored at the first
    /// one's column, row stride `lda`), one `KC` chunk at a time. Each depth
    /// step is classified once per chunk across the rows: an all-zero step
    /// is never visited (exact under `SEED`, as for `nn` rows) and its rhs
    /// row is not packed; the chunk runs the branch-free chain unless one of
    /// its live steps mixes zeros with non-zeros. The live steps keep their
    /// ascending order.
    fn tn_blocked(
        a: &[f32],
        lda: usize,
        b: &[f32],
        c: &mut [f32],
        rows: usize,
        k: usize,
        n: usize,
    ) {
        workspace::with_thread(|ws| {
            let mut panel = ws.take(k.min(KC) * NR);
            let mut steps = [0u32; KC];
            for p0 in (0..k).step_by(KC) {
                let a = &a[p0 * lda..];
                let (mut live, mut mixed) = (0, false);
                for q in 0..(k - p0).min(KC) {
                    let z = zeros(&a[q * lda..q * lda + rows]);
                    if z < rows {
                        steps[live] = q as u32;
                        live += 1;
                        mixed |= z > 0;
                    }
                }
                let steps = &steps[..live];
                for j0 in (0..n / NR).map(|t| t * NR) {
                    pack_panel_cols(b, &mut panel, steps.iter().map(|&q| p0 + q as usize), n, j0);
                    for i0 in (0..rows).step_by(MR) {
                        let t = &ADJACENT[..(rows - i0).min(MR)];
                        let (a, c) = (&a[i0..], &mut c[i0 * n + j0..]);
                        if mixed {
                            micro::<true, true, true>(t, steps, a, lda, &panel, live, c, n);
                        } else {
                            micro::<true, true, false>(t, steps, a, lda, &panel, live, c, n);
                        }
                    }
                }
            }
        });
    }

    /// Every row tile of `nt` against one packed full-depth panel.
    fn nt_panel(a: &[f32], panel: &[f32], c: &mut [f32], j0: usize, m: usize, k: usize, n: usize) {
        for i0 in (0..m).step_by(MR) {
            let (t, c) = (&ADJACENT[..(m - i0).min(MR)], &mut c[i0 * n + j0..]);
            micro::<false, false, false>(t, &[], &a[i0 * k..], k, panel, k, c, n);
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
            let rows = std::array::from_fn(|r| &a[(t * MV + r) * k..(t * MV + r + 1) * k]);
            let acc = chain_tile::<MV, 1, true>(seed, by_rows(rows), b, 1, k);
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
        nn_blocked(a, b, c, m, k, n);
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
        tn_blocked(a.get(i0..).unwrap_or_default(), m, b, c, rows, k, n);
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
