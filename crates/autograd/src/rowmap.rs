//! Where each slot of an index block reads its row among the block's
//! distinct indices.

use std::sync::Arc;

/// A padding slot's entry: no row, an exact `+0.0` projection.
pub(crate) const PAD: u32 = u32::MAX;

/// The slot → row map of a `[b, n]` index block onto its distinct
/// non-padding indices (`-1` = padding), rows numbered in order of first
/// appearance. Built by [`RowMap::distinct`] and read by
/// [`crate::Graph::project_rows`]: a row-local product of the block (an
/// embedding's projection) is computed once per distinct index and copied
/// to every slot that holds it.
#[derive(Clone, Debug)]
pub struct RowMap {
    /// Per slot, its row, or [`PAD`].
    pub(crate) slots: Arc<Vec<u32>>,
    /// Distinct non-padding indices.
    pub(crate) rows: usize,
    /// The block's `[b, n]`.
    pub(crate) shape: (usize, usize),
}

impl RowMap {
    /// The distinct non-padding indices of the `[b, n]` block `idx`, in
    /// order of first appearance, and the map from each slot to its
    /// index's position among them. A hash of the block's own indices finds
    /// the repeats, so the work and memory grow with `b·n`, not with the
    /// range of the indices.
    ///
    /// # Panics
    /// Panics if `idx.len() != b·n`.
    pub fn distinct(idx: &[i64], b: usize, n: usize) -> (Vec<i64>, RowMap) {
        assert_eq!(idx.len(), b * n, "RowMap: idx len {} != {b}x{n}", idx.len());
        assert!(idx.len() < PAD as usize, "RowMap: {} slots overflow a row id", idx.len());
        // Open addressing at load ≤ ½ keeps the probe chains short; each
        // entry is a row, whose index `ids` holds.
        let cap = (2 * idx.len()).next_power_of_two().max(2);
        let shift = 64 - cap.trailing_zeros();
        let mut table = vec![PAD; cap];
        let mut ids: Vec<i64> = Vec::new();
        let slots = idx
            .iter()
            .map(|&ix| {
                if ix < 0 {
                    return PAD;
                }
                let mut h = ((ix as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
                loop {
                    match table[h] {
                        PAD => {
                            table[h] = ids.len() as u32;
                            ids.push(ix);
                            return table[h];
                        }
                        r if ids[r as usize] == ix => return r,
                        _ => h = (h + 1) & (cap - 1),
                    }
                }
            })
            .collect();
        let map = RowMap { slots: Arc::new(slots), rows: ids.len(), shape: (b, n) };
        (ids, map)
    }

    /// Number of distinct non-padding indices: the rows a mapped product
    /// runs over.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Slots that hold an index (not padding).
    pub fn filled(&self) -> usize {
        self.slots.iter().filter(|&&r| r != PAD).count()
    }
}
