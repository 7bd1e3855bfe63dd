//! Searched differential coverage of the frozen forward's pipeline: over
//! drawn model shapes and batch compositions, every way of obtaining the
//! history side — built once for each run of consecutive rows that repeat a
//! history, or lent as a cached [`HistoryView`](seqfm_core::HistoryView) —
//! must produce the autograd graph's logits **bit for bit**. Each case
//! draws a pool of histories and maps every row to one of them, so batches
//! range from one shared history (one run) through runs of several lengths
//! with non-adjacent repeats (`A A B A`) to a history per row.
//!
//! The hand-picked parity suites sit at `d = 8`, `max_seq = 6` and one FFN
//! layer; this one draws odd widths, FFN depths of one to three (Fig. 3
//! sweeps `l`), single-row batches, partially shared batches, slates long
//! enough for the head's eight-row tile plus a tail, slates that repeat
//! a candidate, and the degenerate histories (all PAD, shorter than the
//! window, truncated, one item repeated to capacity). The shim draws each
//! case from a seeded RNG, so a failure reports a case index that reproduces
//! exactly.

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqfm_autograd::{Graph, ParamStore};
use seqfm_core::{Ablation, FrozenSeqFm, Scorer, Scratch, SeqFm, SeqFmConfig, SeqModel};
use seqfm_data::{build_instance, Batch, FeatureLayout};

const LAYOUT: FeatureLayout = FeatureLayout { n_users: 6, n_items: 10 };
/// Most rows a case draws, and the longest history one row can carry
/// (`max_seq + 2` at the widest window).
const MAX_B: usize = 24;
const MAX_HIST: usize = 10;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_history_side_matches_the_graph_bitwise(
        variant in 0..Ablation::table5_variants().len(),
        d in 1usize..=12,
        max_seq in 1usize..=8,
        layers in 1usize..=3,
        b in 1..=MAX_B,
        users in vec(0..LAYOUT.n_users as u32, MAX_B),
        cands in vec(0..LAYOUT.n_items as u32, MAX_B),
        hist_lens in vec(0..=MAX_HIST, MAX_B),
        hist_items in vec(0..LAYOUT.n_items as u32, MAX_B * MAX_HIST),
        one_item in vec(any::<bool>(), MAX_B),
        pool_log2 in 0u32..=5,
        hist_map in vec(0..MAX_B, MAX_B),
        share_user in any::<bool>(),
        duplicate_cands in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (name, ablation) = Ablation::table5_variants()[variant];
        let cfg =
            SeqFmConfig { d, max_seq, layers, dropout: 0.0, ablation };
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let model = SeqFm::new(&mut ps, &mut rng, &LAYOUT, cfg);
        // A fresh model's linear terms, bias and FFN biases are exact zeros
        // and would hide a wrong row's lin˙; move every parameter off its
        // initial value, as training does.
        for id in ps.ids() {
            for v in ps.value_mut(id).data_mut() {
                *v += rng.gen_range(-0.5f32..0.5);
            }
        }
        let frozen = FrozenSeqFm::freeze(&model, &ps);

        // History `h` of the pool: up to two events longer than the window,
        // or its first event repeated that many times.
        let history = |h: usize| -> Vec<u32> {
            let len = hist_lens[h].min(max_seq + 2);
            let drawn = &hist_items[h * MAX_HIST..h * MAX_HIST + len];
            if one_item[h] { vec![hist_items[h * MAX_HIST]; len] } else { drawn.to_vec() }
        };
        // Row `r`'s history: the drawn map into a pool of 1, 2, 4, … 32
        // histories, or a history of its own once the pool covers the batch.
        let pool = 1usize << pool_log2;
        let row_history = |r: usize| if pool >= b { r } else { hist_map[r] % pool };
        let user = |r: usize| users[if share_user { 0 } else { r }];
        // A slate that keeps returning to its first two candidates: equal
        // rows must get equal logits from wherever they sit in the batch.
        let cands: Vec<u32> =
            (0..b).map(|r| cands[if duplicate_cands { r % 2 } else { r }]).collect();
        let insts: Vec<_> = (0..b)
            .map(|r| {
                let hist = history(row_history(r));
                build_instance(&LAYOUT, user(r), cands[r], &hist, max_seq, 0.0)
            })
            .collect();
        let batch = Batch::try_from_instances(&insts).expect("valid batch");

        let mut g = Graph::new();
        let y = model.forward(&mut g, &ps, &batch, false, &mut StdRng::seed_from_u64(77));
        let bits = |logits: &[f32]| logits.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let expect = bits(g.value(y).data());
        let shape = format!("{name}, d={d}, max_seq={max_seq}, layers={layers}, b={b}, pool={pool}");

        let mut scratch = Scratch::new();
        prop_assert_eq!(&bits(frozen.score(&batch, &mut scratch)), &expect, "score: {}", shape);
        // One history across the batch (a pool of one, a single row, or
        // draws that coincide): a lent view and catalog blocks must match.
        if batch.dyn_idx.chunks_exact(max_seq).all(|row| row == &batch.dyn_idx[..max_seq]) {
            let view = frozen.history_view(&batch.dyn_idx[..max_seq], &mut scratch);
            let got = bits(frozen.score_with_view(&batch, &view, &mut scratch));
            prop_assert_eq!(&got, &expect, "score_with_view: {}", shape);

            // One catalog block per user: the whole batch when it repeats
            // its user, one row at a time otherwise.
            let (mut block, mut got) = (Batch::default(), Vec::new());
            let step = if share_user { b } else { 1 };
            for lo in (0..b).step_by(step) {
                let (u, items) = (user(lo), &cands[lo..lo + step]);
                frozen.score_catalog_into(
                    &LAYOUT, u, items, &view, &mut block, &mut scratch, &mut got,
                );
            }
            prop_assert_eq!(&bits(&got), &expect, "score_catalog_into: {}", shape);
        }
    }
}
