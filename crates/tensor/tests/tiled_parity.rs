//! Bit-for-bit parity of the cache-blocked packed matmul kernels against
//! the naive references, at adversarial shapes.
//!
//! The tiled kernels promise *exact* equality with the naive loops for any
//! input (see the matmul module docs): tiling reorders which output element
//! is computed when, never the per-element accumulation sequence. These
//! property tests drive shapes around every tile boundary — `m`/`k`/`n`
//! odd, smaller than one register tile, exactly one, and zero — plus the
//! widths the Table-V model variants and the serving path actually use, and
//! assert equality to the bit on random data with embedded zeros (the
//! padding-row skip) and non-zero initial accumulators (the `+=` contract).

use proptest::prelude::*;
use seqfm_tensor::kernels::matmul::{naive, tiled};
use seqfm_tensor::workspace;

/// Deterministic pseudo-random fill with exact zeros sprinkled in so the
/// padding-row skip paths execute (a zero lhs entry is *skipped*, not
/// multiplied — parity would catch a kernel that multiplies instead).
fn fill(seed: &mut u64, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| {
            *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let bits = (*seed >> 33) as u32;
            if bits.is_multiple_of(7) {
                0.0
            } else {
                (bits % 2000) as f32 / 300.0 - 3.3
            }
        })
        .collect()
}

/// [`fill`] without its zeros: a zero-free row.
fn nonzero(seed: &mut u64, len: usize) -> Vec<f32> {
    fill(seed, len).into_iter().map(|v| if v == 0.0 { 1.25 } else { v }).collect()
}

/// A `[sessions·len, width]` matrix in the layout SeqFM's zero-padded
/// dynamic block gives a projection's lhs: sessions of `len` rows, each
/// opening with an all-zero (padding) prefix of 0 to `len` rows, the rest
/// zero-free.
fn padded(seed: &mut u64, sessions: usize, len: usize, width: usize) -> Vec<f32> {
    let mut v = nonzero(seed, sessions * len * width);
    for (s, session) in v.chunks_mut(len * width).enumerate() {
        session[..(s * 7 + 3) % (len + 1) * width].fill(0.0);
    }
    v
}

/// A `[rows, width]` matrix whose rows cycle through every class the tiled
/// `nn` / `tn` kernels sort rows (or depth steps) into: all `+0.0`,
/// zero-free, mixed (zeros, a `-0.0` among them, beside non-zeros), all
/// `-0.0`. Returns the matrix and which rows are all-zero.
fn classed(seed: &mut u64, rows: usize, width: usize) -> (Vec<f32>, Vec<bool>) {
    let mut v = nonzero(seed, rows * width);
    let mut zero = vec![false; rows];
    for (i, row) in v.chunks_mut(width).enumerate() {
        match i % 4 {
            0 => row.fill(0.0),
            2 if width > 1 => row.iter_mut().step_by(3).for_each(|x| *x = -0.0),
            3 => row.fill(-0.0),
            _ => {}
        }
        zero[i] = row.iter().all(|&x| x == 0.0);
    }
    (v, zero)
}

/// Overwrites every `stride`-th element of `v` with `+∞`, `-∞` or NaN.
fn poison(v: &mut [f32], stride: usize) {
    for (t, x) in v.iter_mut().step_by(stride).enumerate() {
        *x = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][t % 3];
    }
}

/// Bit patterns: `-0.0` and `+0.0` differ. Every NaN reads as one pattern —
/// which operand's NaN an add propagates, and the sign of a fresh one, are
/// left unspecified by the compiler.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits()).collect()
}

type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// Runs a tiled kernel and its naive reference from the same `c0` at
/// `[m, k, n]`, asserts equal bit patterns and returns the result.
fn same_bits(kernels: [Kernel; 2], a: &[f32], b: &[f32], c0: &[f32], mkn: [usize; 3]) -> Vec<f32> {
    let [m, k, n] = mkn;
    let [mut got, mut want] = [c0.to_vec(), c0.to_vec()];
    kernels[0](a, b, &mut got, m, k, n);
    kernels[1](a, b, &mut want, m, k, n);
    assert_eq!(bits(&got), bits(&want), "diverges at {m}x{k}x{n}");
    got
}

const NN: [Kernel; 2] = [tiled::matmul_nn_into, naive::matmul_nn_into];
const TN: [Kernel; 2] = [tiled::matmul_tn_into, naive::matmul_tn_into];

/// Asserts all three tiled flavours equal their naive references bitwise at
/// `[m, k, n]`, starting from a non-trivial initial `c`.
fn assert_parity(m: usize, k: usize, n: usize, seed: &mut u64) {
    let a = fill(seed, m * k);
    let b = fill(seed, k * n);
    let bt = fill(seed, n * k);
    let at = fill(seed, k * m);
    let c0 = fill(seed, m * n);

    let (mut got, mut want) = (c0.clone(), c0.clone());
    tiled::matmul_nn_into(&a, &b, &mut got, m, k, n);
    naive::matmul_nn_into(&a, &b, &mut want, m, k, n);
    assert_eq!(got, want, "nn diverges at {m}x{k}x{n}");

    got.copy_from_slice(&c0);
    want.copy_from_slice(&c0);
    tiled::matmul_nt_into(&a, &bt, &mut got, m, k, n);
    naive::matmul_nt_into(&a, &bt, &mut want, m, k, n);
    assert_eq!(got, want, "nt diverges at {m}x{k}x{n}");

    got.copy_from_slice(&c0);
    want.copy_from_slice(&c0);
    tiled::matmul_tn_into(&at, &b, &mut got, m, k, n);
    naive::matmul_tn_into(&at, &b, &mut want, m, k, n);
    assert_eq!(got, want, "tn diverges at {m}x{k}x{n}");
}

proptest! {
    /// Random shapes across every tile-boundary regime: dims from 0 (empty)
    /// through 1, sub-tile, and several full tiles plus odd remainders.
    #[test]
    fn tiled_matches_naive_at_random_shapes(
        m in 0usize..41,
        k in 0usize..35,
        n in 0usize..53,
        salt in 0u64..u64::MAX,
    ) {
        let mut seed = salt | 1;
        assert_parity(m, k, n, &mut seed);
    }
}

#[test]
fn tiled_matches_naive_at_model_and_serving_widths() {
    // Table-V variant widths (the ablation suite trains at d = 8; the
    // sensitivity sweep and serving shapes use 16/32/64) with m spanning
    // one-row, attention-sized (n° + n˙ rows), and candidate-expansion
    // batches; n both equal to d (projections) and to the position count
    // (score matrices).
    let mut seed = 0xBEEF;
    for &d in &[8usize, 16, 32, 64] {
        for &m in &[1usize, 5, 22, 100, 257] {
            assert_parity(m, d, d, &mut seed); // Q/K/V + FFN projections
            assert_parity(m, d, 22, &mut seed); // score-matrix shape
            assert_parity(m, d, 1, &mut seed); // output head hagg·p
        }
    }
}

#[test]
fn matvec_matches_naive_bitwise_with_zero_skips_and_a_seeded_output() {
    // `nn` with `n == 1` (the output head) runs eight rows' chains per tile:
    // no tile, exactly one, one plus a tail, several — at a one-step, the
    // head's and a past-`KC` depth. `c` starts non-zero (the `+=` contract),
    // `a` carries exact zeros, and in the poisoned pass whole columns of `a`
    // are zero opposite `±∞` / NaN entries of `b`: a kernel that multiplied
    // instead of skipping would emit NaN where naive leaves `c` finite.
    let mut seed = 0xAB1E;
    for &m in &[1usize, 7, 8, 9, 16, 100, 128] {
        for &k in &[1usize, 96, 257] {
            for poisoned in [false, true] {
                let mut a = fill(&mut seed, m * k);
                let mut b = fill(&mut seed, k);
                let c0: Vec<f32> =
                    fill(&mut seed, m).iter().map(|&v| if v == 0.0 { 0.75 } else { v }).collect();
                if poisoned {
                    for p in (0..k).step_by(5) {
                        b[p] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][p / 5 % 3];
                        a.iter_mut().skip(p).step_by(k).for_each(|v| *v = 0.0);
                    }
                }
                let mut want = c0.clone();
                naive::matmul_nn_into(&a, &b, &mut want, m, k, 1);
                assert!(want.iter().all(|v| v.is_finite()), "reference lost the skip");
                let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                // The tiled kernel itself, and the dispatching entry point
                // the head and the tape call.
                for kernel in [tiled::matmul_nn_into, seqfm_tensor::matmul_nn_into] {
                    let mut got = c0.clone();
                    kernel(&a, &b, &mut got, m, k, 1);
                    let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "matvec diverges at m={m} k={k} poisoned={poisoned}");
                }
            }
        }
    }
}

#[test]
fn tiled_edge_shapes_cover_exact_tile_multiples() {
    // Exactly one tile, one short of a tile, one past it — in n; in m, every
    // row count of a last tile (each arm of the tile's `match rows`), with
    // and without a full tile before it.
    let mut seed = 0xC0DE;
    for m in 1usize..=13 {
        for &n in &[15usize, 16, 17, 32, 33] {
            for &k in &[1usize, 2, 31] {
                assert_parity(m, k, n, &mut seed);
            }
        }
    }
}

#[test]
fn tiled_k_blocking_boundaries_stay_bit_exact() {
    // The nn/tn kernels split the reduction depth into KC = 256 chunks,
    // round-tripping the c tile through memory between chunks. Drive k
    // right around that boundary — one short, exact, one past, a ragged
    // mid-chunk tail, and several full chunks — so both the single-chunk
    // fast case and the multi-chunk store/load chaining are proven
    // bit-identical to the naive full-depth loops (nt packs full depth and
    // must also stay exact at these k).
    let mut seed = 0xFEED;
    for &k in &[255usize, 256, 257, 300, 512, 1000] {
        assert_parity(13, k, 33, &mut seed);
        assert_parity(6, k, 16, &mut seed); // exactly one register tile
        assert_parity(10, k, 16, &mut seed); // a 4-row last tile across chunks
    }
}

#[test]
fn padding_prefixes_match_naive_bitwise() {
    // `[128·22, 32]` is a training batch's cross-view projection lhs; the
    // odd shapes put prefixes across partial tiles and column tails. `tn`
    // reads the same layout as the depth rows of a weight gradient `xᵀ·dy`.
    let mut seed = 0x9AD;
    for &(sessions, len, k, n) in
        &[(128usize, 22usize, 32usize, 32usize), (5, 7, 3, 17), (3, 13, 9, 33)]
    {
        let m = sessions * len;
        let a = padded(&mut seed, sessions, len, k);
        let (b, c0) = (fill(&mut seed, k * n), fill(&mut seed, m * n));
        same_bits(NN, &a, &b, &c0, [m, k, n]);
        let (dy, c0) = (fill(&mut seed, m * n), fill(&mut seed, k * n));
        same_bits(TN, &a, &dy, &c0, [k, m, n]);
    }
}

/// Poisons (`±∞` / NaN) every row `p` of the `[k, n]` rhs that meets a zero
/// `a(i, p)` of an lhs row `i` that is not all zero, and returns the output
/// rows whose every poisoned step is a zero: naive's skip keeps those
/// finite, and a kernel that multiplied a skipped zero would turn them NaN.
fn poison_skipped(b: &mut [f32], a: impl Fn(usize, usize) -> f32, mkn: [usize; 3]) -> Vec<usize> {
    let [m, k, n] = mkn;
    let live: Vec<bool> = (0..m).map(|i| (0..k).any(|p| a(i, p) != 0.0)).collect();
    let bad: Vec<bool> = (0..k).map(|p| (0..m).any(|i| live[i] && a(i, p) == 0.0)).collect();
    for (row, _) in b.chunks_mut(n).zip(&bad).filter(|(_, &x)| x) {
        poison(row, 1);
    }
    (0..m).filter(|&i| (0..k).all(|p| !bad[p] || a(i, p) == 0.0)).collect()
}

#[test]
fn all_zero_zero_free_and_mixed_rows_match_naive_bitwise_in_one_call() {
    // Every row class in one call, at a projection shape, an odd one and a
    // past-`KC` depth. `c` starts at `-0.0` under every all-zero row: a
    // kernel that ran such a row — even on the branch-free chain — would add
    // `+0.0` and flip it. `b` is poisoned opposite the mixed rows' zeros, so
    // a mixed row run without the skip turns NaN.
    let mut seed = 0x0DD;
    for &(m, k, n) in &[(24usize, 32usize, 32usize), (13, 7, 17), (9, 300, 16)] {
        let (a, zero) = classed(&mut seed, m, k);
        let mut b = fill(&mut seed, k * n);
        let safe = poison_skipped(&mut b, |i, p| a[i * k + p], [m, k, n]);
        let mut c0 = fill(&mut seed, m * n);
        for (row, _) in c0.chunks_mut(n).zip(&zero).filter(|(_, &z)| z) {
            row.fill(-0.0);
        }
        let got = same_bits(NN, &a, &b, &c0, [m, k, n]);
        for i in safe {
            assert!(got[i * n..(i + 1) * n].iter().all(|v| v.is_finite()), "row {i} met a poison");
        }
        for (i, _) in zero.iter().enumerate().filter(|(_, &z)| z) {
            let want = vec![(-0.0f32).to_bits(); n];
            assert_eq!(bits(&got[i * n..(i + 1) * n]), want, "all-zero row {i} was visited");
        }
    }
}

#[test]
fn tn_skips_all_zero_depth_steps_across_kc_chunks() {
    // `tn`'s lhs is `[k, m]`: its rows are depth steps, and the rhs rows
    // opposite their zeros are poisoned. A run of all-zero steps straddles
    // the `KC` = 256 chunk boundary. With `mixed` the other steps cycle
    // through every class (the chunk keeps the skip); without, they are
    // zero-free (the branch-free chain) and every output must stay finite.
    let mut seed = 0x7A;
    let (m, n) = (13usize, 33usize);
    for &k in &[255usize, 256, 257, 600] {
        for mixed in [false, true] {
            let mut a = if mixed { classed(&mut seed, k, m).0 } else { padded(&mut seed, 1, k, m) };
            a[250 * m..k.min(262) * m].fill(0.0);
            let mut b = fill(&mut seed, k * n);
            let safe = poison_skipped(&mut b, |i, p| a[p * m + i], [m, k, n]);
            assert!(mixed || safe.len() == m);
            let got = same_bits(TN, &a, &b, &fill(&mut seed, m * n), [m, k, n]);
            for i in safe {
                let row = &got[i * n..(i + 1) * n];
                assert!(row.iter().all(|v| v.is_finite()), "row {i} met a poison, k = {k}");
            }
        }
    }
}

#[test]
fn workspace_panels_do_not_leak_between_differently_sized_ops() {
    // A big op warms the thread-local arena with a large poisoned panel;
    // a smaller op afterwards must see freshly zeroed scratch and produce
    // exactly the naive result. This is the kernel-level version of the
    // workspace reset test: `take` zero-fills, so stale panel contents from
    // the larger op can never bleed into the smaller one.
    let mut seed = 7;
    assert_parity(64, 64, 64, &mut seed);
    workspace::with_thread(|ws| {
        // Poison a buffer at least as large as any panel the small op takes.
        let mut buf = ws.take(64 * 64);
        buf.fill(f32::NAN);
    });
    assert_parity(6, 3, 17, &mut seed);
    assert_parity(1, 1, 16, &mut seed);
    // And the arena is balanced: every kernel scope returned its buffer.
    workspace::with_thread(|ws| assert_eq!(ws.live(), 0, "kernel leaked a workspace buffer"));
}

#[test]
fn steady_state_tiled_kernels_do_not_allocate() {
    // Every flavour measured below, on a plain and on a padded input (the
    // zero-aware `nn` / `tn` walks keep their row and step lists on the
    // stack), is warmed first: each takes its own panel size from the arena.
    let (m, k, n) = (48usize, 32, 32);
    let mut seed = 11;
    let inputs = [fill(&mut seed, m * k), padded(&mut seed, 6, 8, k)];
    let b = fill(&mut seed, k * n);
    let mut c = vec![0.0f32; m * n];
    let mut run = || {
        for a in &inputs {
            tiled::matmul_nn_into(a, &b, &mut c, m, k, n);
            tiled::matmul_nt_into(a, &b, &mut c, m, k, n);
            tiled::matmul_tn_into(a, &b, &mut c, m, k, n);
        }
    };
    for _ in 0..3 {
        run();
    }
    let warm = workspace::with_thread(|ws| ws.heap_events());
    for _ in 0..50 {
        run();
    }
    let after = workspace::with_thread(|ws| ws.heap_events());
    assert_eq!(warm, after, "steady-state kernels hit the heap");
}

/// The shared-panel `nt` path (one pre-pack serving every parallel row
/// chunk) must stay bit-identical to the per-call-packing tiled kernel and
/// to the naive reference — the panels it shares are byte-identical to the
/// ones each chunk would have packed itself.
#[test]
fn prepacked_nt_panels_match_unpacked_and_naive_bitwise() {
    let mut seed = 0xBEEF;
    const NR: usize = 16;
    for (m, k, n) in [(9usize, 7usize, 16usize), (24, 32, 48), (33, 20, 53), (5, 3, 15)] {
        let a = fill(&mut seed, m * k);
        let bt = fill(&mut seed, n * k);
        let c0 = fill(&mut seed, m * n);

        let mut panels = vec![0.0f32; (n / NR) * k * NR];
        tiled::pack_nt_panels(&bt, &mut panels, k, n);

        let mut got = c0.clone();
        tiled::matmul_nt_packed_into(&a, &bt, &panels, &mut got, m, k, n);

        let mut want = c0.clone();
        naive::matmul_nt_into(&a, &bt, &mut want, m, k, n);
        assert_eq!(got, want, "packed nt vs naive diverges at {m}x{k}x{n}");

        let mut want2 = c0.clone();
        tiled::matmul_nt_into(&a, &bt, &mut want2, m, k, n);
        assert_eq!(got, want2, "packed nt vs tiled diverges at {m}x{k}x{n}");
    }
}
