//! Steady-state `Scorer::score_into` / `score_with_view_into` perform **zero
//! heap allocations** — asserted with a counting global allocator.
//!
//! This binary holds exactly one test so the process-wide allocation
//! counter can't be perturbed by concurrent sibling tests. `SEQFM_WORKERS`
//! is pinned to 1 before the first kernel dispatch: parallel fan-out boxes
//! one closure per task by design, so the zero-allocation guarantee is a
//! property of the serial hot path every worker thread runs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_autograd::ParamStore;
use seqfm_core::{FrozenSeqFm, Scorer, Scratch, SeqFm, SeqFmConfig};
use seqfm_data::{build_instance, Batch, FeatureLayout};
use seqfm_tensor::testutil::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_score_into_performs_zero_heap_allocations() {
    // Must precede the first kernel dispatch: the global pool reads the
    // variable exactly once per process.
    std::env::set_var("SEQFM_WORKERS", "1");

    let layout = FeatureLayout { n_users: 64, n_items: 300 };
    let cfg = SeqFmConfig { d: 32, max_seq: 20, dropout: 0.0, ..Default::default() };
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(9);
    let model = SeqFm::new(&mut ps, &mut rng, &layout, cfg);
    let frozen = FrozenSeqFm::freeze(&model, &ps);

    // A candidate-expansion-shaped batch: one shared history, many
    // candidates — the serving engine's hot shape.
    let hist: Vec<u32> = (0..20).map(|j| (j * 7) % 300).collect();
    let shared: Vec<_> =
        (0..32).map(|c| build_instance(&layout, 3, (c * 5) % 300, &hist, 20, 0.0)).collect();
    let shared = Batch::try_from_instances(&shared).expect("valid batch");
    // And a mixed-history batch exercising the general path.
    let mixed: Vec<_> = (0..8)
        .map(|i| build_instance(&layout, i as u32, (i * 11) as u32 % 300, &hist[..i], 20, 0.0))
        .collect();
    let mixed = Batch::try_from_instances(&mixed).expect("valid batch");

    // The serving slate: 100 candidates against a cached history view —
    // the structured cross view's transposed packs must come out of the
    // warm thread workspace, not the heap.
    let slate: Vec<_> =
        (0..100).map(|c| build_instance(&layout, 3, (c * 5) % 300, &hist, 20, 0.0)).collect();
    let slate = Batch::try_from_instances(&slate).expect("valid batch");

    let mut scratch = Scratch::new();
    let view = frozen.history_view(&slate.dyn_idx[..20], &mut scratch);
    let mut out = Vec::with_capacity(shared.len + mixed.len + slate.len);

    // Warm-up: grows every arena buffer, the mask cache, and the output
    // accumulator to their high-water marks.
    for _ in 0..5 {
        out.clear();
        frozen.score_into(&shared, &mut scratch, &mut out);
        frozen.score_into(&mixed, &mut scratch, &mut out);
        frozen.score_with_view_into(&slate, &view, &mut scratch, &mut out);
    }
    let want = out.clone();

    // Steady state: not a single heap allocation across 150 scoring calls.
    let before = CountingAlloc::allocations();
    for _ in 0..50 {
        out.clear();
        frozen.score_into(&shared, &mut scratch, &mut out);
        frozen.score_into(&mixed, &mut scratch, &mut out);
        frozen.score_with_view_into(&slate, &view, &mut scratch, &mut out);
    }
    let after = CountingAlloc::allocations();
    assert_eq!(after - before, 0, "steady-state score_into allocated {} time(s)", after - before);
    // And the warm path kept producing the same logits.
    assert_eq!(out, want, "warm path changed the scores");
}
