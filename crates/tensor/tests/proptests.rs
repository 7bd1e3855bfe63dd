//! Property-based tests for the tensor kernels.

use proptest::prelude::*;
use seqfm_tensor::testutil::rand_tensor;
use seqfm_tensor::{
    attention_cross_shared_into, attention_into, bmm_nn, ew, matmul_nn, matmul_nt, matmul_tn,
    reduce, softmax_lastdim, softmax_lastdim_masked, AttnMask, Shape, Tensor,
};

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(Shape::d2(rows, cols), v))
}

proptest! {
    /// A·(B + C) == A·B + A·C (distributivity, up to f32 noise).
    #[test]
    fn matmul_distributes_over_addition(
        a in tensor_strategy(4, 3),
        b in tensor_strategy(3, 5),
        c in tensor_strategy(3, 5),
    ) {
        let lhs = matmul_nn(&a, &ew::add(&b, &c));
        let rhs = ew::add(&matmul_nn(&a, &b), &matmul_nn(&a, &c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// matmul_nt(A, B) == A·Bᵀ and matmul_tn(C, D) == Cᵀ·D, checked via the
    /// nn kernel with explicit transposes.
    #[test]
    fn transpose_flavours_agree(
        a in tensor_strategy(4, 3),
        b in tensor_strategy(5, 3),
        c in tensor_strategy(3, 4),
        d in tensor_strategy(3, 2),
    ) {
        let transpose = |t: &Tensor| -> Tensor {
            let (r, cc) = (t.shape().dim(0), t.shape().dim(1));
            let mut out = Tensor::zeros(Shape::d2(cc, r));
            for i in 0..r {
                for j in 0..cc {
                    out.data_mut()[j * r + i] = t.data()[i * cc + j];
                }
            }
            out
        };
        // nt: A[4,3]·(B[5,3])ᵀ == A·Bᵀ[3,5]
        let via_nt = matmul_nt(&a, &b);
        let via_nn = matmul_nn(&a, &transpose(&b));
        for (x, y) in via_nt.data().iter().zip(via_nn.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
        // tn: (C[3,4])ᵀ·D[3,2] == Cᵀ[4,3]·D
        let via_tn = matmul_tn(&c, &d);
        let via_nn2 = matmul_nn(&transpose(&c), &d);
        for (x, y) in via_tn.data().iter().zip(via_nn2.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// bmm over a single batch slice equals plain matmul.
    #[test]
    fn bmm_batch1_equals_matmul(
        a in tensor_strategy(3, 4),
        b in tensor_strategy(4, 2),
    ) {
        let a3 = a.reshaped(Shape::d3(1, 3, 4));
        let b3 = b.reshaped(Shape::d3(1, 4, 2));
        let batched = bmm_nn(&a3, &b3);
        let plain = matmul_nn(&a, &b);
        prop_assert_eq!(batched.data(), plain.data());
    }

    /// Softmax rows are a probability distribution, masked or not.
    #[test]
    fn softmax_rows_are_distributions(x in tensor_strategy(5, 5)) {
        for y in [softmax_lastdim(&x), softmax_lastdim_masked(&x, &AttnMask::causal(5))] {
            for r in 0..5 {
                let row = y.row(r);
                prop_assert!(row.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
                let s: f32 = row.iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-4, "row {r} sums to {s}");
            }
        }
    }

    /// Causal softmax at row i never assigns weight to columns > i.
    #[test]
    fn causal_softmax_respects_mask(x in tensor_strategy(6, 6)) {
        let y = softmax_lastdim_masked(&x, &AttnMask::causal(6));
        for i in 0..6 {
            for j in (i + 1)..6 {
                prop_assert_eq!(y.at2(i, j), 0.0);
            }
        }
    }

    /// sum_axis1 ∘ broadcast_axis1 scales by n (adjoint consistency).
    #[test]
    fn broadcast_then_sum_scales(dy in tensor_strategy(3, 4)) {
        let up = reduce::broadcast_axis1(&dy, 5, 1.0);
        let back = reduce::sum_axis1(&up);
        for (x, y) in back.data().iter().zip(dy.data()) {
            prop_assert!((x - y * 5.0).abs() < 1e-4);
        }
    }

    /// Reshape round-trips exactly.
    #[test]
    fn reshape_roundtrip(a in tensor_strategy(6, 4)) {
        let r = a.reshaped(Shape::d3(2, 3, 4)).reshaped(Shape::d2(6, 4));
        prop_assert_eq!(a.data(), r.data());
    }

    /// The structured shared-history cross kernel — the one attention kernel
    /// both serving profiles run — equals splicing the shared static rows and
    /// the history into every slice and running the dense masked kernel, bit
    /// for bit, at any geometry (empty sides, none / some / all of the
    /// static rows shared, ragged lane tails, and batches big enough to fan
    /// out under `SEQFM_WORKERS=4`).
    #[test]
    fn cross_shared_equals_spliced_dense_masked_bitwise(
        bs in 1usize..10,
        ns in 0usize..4,
        shared_rows in 0usize..3,
        nd in 0usize..25,
        d in 1usize..41,
        salt in 0u64..u64::MAX,
    ) {
        let n = ns + nd;
        prop_assume!(n > 0); // the dense reference has no zero-width rows
        let ns0 = shared_rows.min(ns);
        let ns1 = ns - ns0;
        let scale = 1.0 / (d as f32).sqrt();
        let mut seed = salt | 1;
        let shared = [(); 3].map(|()| rand_tensor(Shape::d2(ns0.max(1), d), &mut seed));
        let own = [(); 3].map(|()| rand_tensor(Shape::d3(bs, ns1.max(1), d), &mut seed));
        let hist = [(); 3].map(|()| rand_tensor(Shape::d2(nd.max(1), d), &mut seed));

        let [fq, fk, fv] = [0, 1, 2].map(|i| {
            let mut full = vec![0.0f32; bs * n * d];
            for (b, slice) in full.chunks_exact_mut(n * d).enumerate().take(bs) {
                slice[..ns0 * d].copy_from_slice(&shared[i].data()[..ns0 * d]);
                slice[ns0 * d..ns * d]
                    .copy_from_slice(&own[i].data()[b * ns1 * d..(b + 1) * ns1 * d]);
                slice[ns * d..].copy_from_slice(&hist[i].data()[..nd * d]);
            }
            full
        });
        let mut dense = vec![0.0f32; bs * n * d];
        attention_into(
            &fq,
            &fk,
            &fv,
            Some(&AttnMask::cross(ns, nd)),
            scale,
            bs,
            n,
            d,
            &mut vec![0.0f32; bs * n * n],
            &mut dense,
        );

        let mut structured = vec![f32::NAN; bs * n * d];
        attention_cross_shared_into(
            [shared[0].data(), shared[1].data(), shared[2].data()],
            [own[0].data(), own[1].data(), own[2].data()],
            [hist[0].data(), hist[1].data(), hist[2].data()],
            scale,
            [bs, ns0, ns1, nd, d],
            &mut vec![0.0f32; bs * ns * nd],
            &mut structured,
        );
        for (i, (a, b)) in dense.iter().zip(&structured).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "bs={} ns0={} ns1={} nd={} d={}: element {}", bs, ns0, ns1, nd, d, i
            );
        }
    }
}
