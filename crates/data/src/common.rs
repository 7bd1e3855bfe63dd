//! Core data model: events, datasets, feature layout, instances, batches.
//!
//! All six paper datasets reduce to the same shape after preprocessing: per
//! user, a chronological sequence of (item, timestamp[, rating]) events. The
//! SeqFM input format (paper Eq. 20/22/25) is then derived per prediction:
//! a *static* block of one-hot indices `[user, candidate(, side features)]`
//! and a *dynamic* block containing the user's preceding items, left-padded
//! to the maximum sequence length n˙.

use std::fmt;

/// One user–item interaction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Item (object) index in `0..n_items`.
    pub item: u32,
    /// Timestamp; strictly increasing within a user's sequence.
    pub time: u32,
    /// Explicit rating (regression datasets) or 1.0 for implicit feedback.
    pub rating: f32,
}

/// A chronological interaction dataset.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Human-readable name (e.g. `gowalla-sim`).
    pub name: String,
    /// Number of users.
    pub n_users: usize,
    /// Number of items ("objects" in the paper's Table I).
    pub n_items: usize,
    /// Ground-truth cluster of each item (used by generators and ablation
    /// analysis; models never see this).
    pub item_cluster: Vec<u16>,
    /// Per-user event sequences, chronologically sorted.
    pub per_user: Vec<Vec<Event>>,
}

impl Dataset {
    /// Total number of interactions.
    pub fn n_instances(&self) -> usize {
        self.per_user.iter().map(Vec::len).sum()
    }

    /// Table-I style statistics.
    pub fn stats(&self) -> DatasetStats {
        DatasetStats {
            name: self.name.clone(),
            instances: self.n_instances(),
            users: self.n_users,
            objects: self.n_items,
            sparse_features: self.n_users + self.n_items,
        }
    }

    /// Asserts internal invariants (used by tests and generators):
    /// chronological order, valid item ids, minimum sequence length.
    ///
    /// # Panics
    /// Panics with a description of the violated invariant.
    pub fn validate(&self, min_len: usize) {
        assert_eq!(self.per_user.len(), self.n_users, "per_user len != n_users");
        assert_eq!(self.item_cluster.len(), self.n_items, "item_cluster len != n_items");
        for (u, seq) in self.per_user.iter().enumerate() {
            assert!(seq.len() >= min_len, "user {u} has only {} events (< {min_len})", seq.len());
            for w in seq.windows(2) {
                assert!(w[0].time < w[1].time, "user {u}: timestamps not strictly increasing");
            }
            for e in seq {
                assert!((e.item as usize) < self.n_items, "user {u}: item {} out of range", e.item);
            }
        }
    }

    /// Keeps only the first `fraction` of each user's events (Fig. 4
    /// scalability experiment: training on {0.2, …, 1.0} of the data).
    ///
    /// # Panics
    /// Panics unless `0 < fraction <= 1`.
    pub fn subset(&self, fraction: f64) -> Dataset {
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0,1], got {fraction}");
        let per_user = self
            .per_user
            .iter()
            .map(|seq| {
                let keep = ((seq.len() as f64 * fraction).round() as usize).max(3).min(seq.len());
                seq[..keep].to_vec()
            })
            .collect();
        Dataset {
            name: format!("{}@{:.1}", self.name, fraction),
            n_users: self.n_users,
            n_items: self.n_items,
            item_cluster: self.item_cluster.clone(),
            per_user,
        }
    }
}

/// Table I row: dataset statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// `#Instance`.
    pub instances: usize,
    /// `#User`.
    pub users: usize,
    /// `#Object`.
    pub objects: usize,
    /// `#Feature(Sparse)` — users + objects (the one-hot vocabulary).
    pub sparse_features: usize,
}

impl fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} {:>10} {:>8} {:>8} {:>10}",
            self.name, self.instances, self.users, self.objects, self.sparse_features
        )
    }
}

/// Index layout of the sparse one-hot feature space shared by all models.
///
/// Static block (`m° = n_users + n_items` features): user one-hot in
/// `[0, n_users)`, candidate one-hot in `[n_users, n_users + n_items)`.
/// Dynamic block (`m˙ = n_items` features): previously interacted items.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FeatureLayout {
    /// Number of users.
    pub n_users: usize,
    /// Number of items.
    pub n_items: usize,
}

impl FeatureLayout {
    /// Layout for a dataset.
    pub fn of(ds: &Dataset) -> Self {
        FeatureLayout { n_users: ds.n_users, n_items: ds.n_items }
    }

    /// Width of the static one-hot space `m°`.
    pub fn m_static(&self) -> usize {
        self.n_users + self.n_items
    }

    /// Width of the dynamic one-hot space `m˙`.
    pub fn m_dynamic(&self) -> usize {
        self.n_items
    }

    /// Static index of user `u`.
    pub fn user_feature(&self, u: u32) -> i64 {
        u as i64
    }

    /// Static index of candidate item `v`.
    pub fn item_feature(&self, v: u32) -> i64 {
        (self.n_users + v as usize) as i64
    }
}

/// Padding marker in index sequences (embeds to the zero vector).
pub const PAD: i64 = -1;

/// One model input: static indices plus the left-padded dynamic sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct Instance {
    /// Static one-hot indices (`n°` entries: user, candidate).
    pub static_idx: Vec<i64>,
    /// Dynamic one-hot indices, left-padded with [`PAD`] to length n˙.
    pub dyn_idx: Vec<i64>,
    /// Supervision target (label / rating; unused for BPR ranking).
    pub target: f32,
}

/// Builds an instance for predicting `(user, candidate)` given the user's
/// `history` (chronological items *before* the prediction point).
///
/// Keeps the most recent `max_seq` history items and left-pads with [`PAD`]
/// (paper §III: "If the sequence length is less than n˙, we repeatedly add a
/// padding vector to the top").
pub fn build_instance(
    layout: &FeatureLayout,
    user: u32,
    candidate: u32,
    history: &[u32],
    max_seq: usize,
    target: f32,
) -> Instance {
    let take = history.len().min(max_seq);
    let recent = &history[history.len() - take..];
    let mut dyn_idx = vec![PAD; max_seq - take];
    dyn_idx.extend(recent.iter().map(|&it| it as i64));
    Instance {
        static_idx: vec![layout.user_feature(user), layout.item_feature(candidate)],
        dyn_idx,
        target,
    }
}

/// Why a slice of [`Instance`]s cannot form a [`Batch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchError {
    /// No instances were given — a batch must score at least one row.
    Empty,
    /// Instance `index` has a static width different from instance 0.
    RaggedStatic {
        /// Offending instance index.
        index: usize,
        /// Width of instance 0.
        expected: usize,
        /// Width of the offending instance.
        got: usize,
    },
    /// Instance `index` has a dynamic width different from instance 0.
    RaggedDynamic {
        /// Offending instance index.
        index: usize,
        /// Width of instance 0.
        expected: usize,
        /// Width of the offending instance.
        got: usize,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "empty batch"),
            Self::RaggedStatic { index, expected, got } => {
                write!(f, "ragged static widths in batch: instance {index} has {got}, expected {expected}")
            }
            Self::RaggedDynamic { index, expected, got } => {
                write!(f, "ragged dynamic widths in batch: instance {index} has {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// A mini-batch of instances flattened for embedding gathers.
///
/// The `Default` batch is empty (`len == 0`) — a reusable buffer for callers
/// that rebuild batches in place, like the blocked catalog scorer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Batch {
    /// Batch size.
    pub len: usize,
    /// Static features per instance (`n°`).
    pub n_static: usize,
    /// Dynamic sequence length (`n˙`).
    pub n_dynamic: usize,
    /// Row-major `[len, n_static]` static indices.
    pub static_idx: Vec<i64>,
    /// Row-major `[len, n_dynamic]` dynamic indices (with [`PAD`]).
    pub dyn_idx: Vec<i64>,
    /// Targets, one per instance.
    pub targets: Vec<f32>,
}

impl Batch {
    /// Assembles a batch from instances, reporting invalid input as a value.
    ///
    /// # Errors
    /// [`BatchError::Empty`] for an empty slice;
    /// [`BatchError::RaggedStatic`]/[`BatchError::RaggedDynamic`] when an
    /// instance's widths differ from instance 0.
    pub fn try_from_instances(instances: &[Instance]) -> Result<Batch, BatchError> {
        if instances.is_empty() {
            return Err(BatchError::Empty);
        }
        let n_static = instances[0].static_idx.len();
        let n_dynamic = instances[0].dyn_idx.len();
        let mut static_idx = Vec::with_capacity(instances.len() * n_static);
        let mut dyn_idx = Vec::with_capacity(instances.len() * n_dynamic);
        let mut targets = Vec::with_capacity(instances.len());
        for (index, inst) in instances.iter().enumerate() {
            if inst.static_idx.len() != n_static {
                return Err(BatchError::RaggedStatic {
                    index,
                    expected: n_static,
                    got: inst.static_idx.len(),
                });
            }
            if inst.dyn_idx.len() != n_dynamic {
                return Err(BatchError::RaggedDynamic {
                    index,
                    expected: n_dynamic,
                    got: inst.dyn_idx.len(),
                });
            }
            static_idx.extend_from_slice(&inst.static_idx);
            dyn_idx.extend_from_slice(&inst.dyn_idx);
            targets.push(inst.target);
        }
        Ok(Batch { len: instances.len(), n_static, n_dynamic, static_idx, dyn_idx, targets })
    }

    /// Replaces the candidate-item static feature of every instance with
    /// `candidates[i]` — used to score many candidates against the same
    /// user/history cheaply during ranking evaluation.
    ///
    /// # Panics
    /// Panics if `candidates.len() != self.len`.
    pub fn with_candidates(&self, layout: &FeatureLayout, candidates: &[u32]) -> Batch {
        assert_eq!(candidates.len(), self.len, "candidate count mismatch");
        let mut b = self.clone();
        for (i, &c) in candidates.iter().enumerate() {
            b.static_idx[i * self.n_static + 1] = layout.item_feature(c);
        }
        b
    }

    /// The candidate item of instance `i` (inverse of
    /// [`FeatureLayout::item_feature`]).
    pub fn candidate_item(&self, layout: &FeatureLayout, i: usize) -> u32 {
        (self.static_idx[i * self.n_static + 1] - layout.n_users as i64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> Dataset {
        Dataset {
            name: "tiny".into(),
            n_users: 2,
            n_items: 4,
            item_cluster: vec![0, 0, 1, 1],
            per_user: vec![
                vec![
                    Event { item: 0, time: 1, rating: 1.0 },
                    Event { item: 2, time: 2, rating: 1.0 },
                    Event { item: 3, time: 5, rating: 1.0 },
                ],
                vec![
                    Event { item: 1, time: 3, rating: 1.0 },
                    Event { item: 0, time: 4, rating: 1.0 },
                    Event { item: 2, time: 9, rating: 1.0 },
                ],
            ],
        }
    }

    #[test]
    fn stats_match_table1_columns() {
        let ds = tiny_dataset();
        let s = ds.stats();
        assert_eq!(s.instances, 6);
        assert_eq!(s.users, 2);
        assert_eq!(s.objects, 4);
        assert_eq!(s.sparse_features, 6);
        ds.validate(3);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn validate_catches_time_travel() {
        let mut ds = tiny_dataset();
        ds.per_user[0][2].time = 0;
        ds.validate(1);
    }

    #[test]
    fn layout_indices_are_disjoint() {
        let ds = tiny_dataset();
        let l = FeatureLayout::of(&ds);
        assert_eq!(l.m_static(), 6);
        assert_eq!(l.m_dynamic(), 4);
        assert_eq!(l.user_feature(1), 1);
        assert_eq!(l.item_feature(0), 2);
        assert_eq!(l.item_feature(3), 5);
    }

    #[test]
    fn instance_left_pads_and_truncates() {
        let l = FeatureLayout { n_users: 2, n_items: 4 };
        // short history → left padding
        let inst = build_instance(&l, 0, 3, &[1, 2], 4, 1.0);
        assert_eq!(inst.dyn_idx, vec![PAD, PAD, 1, 2]);
        assert_eq!(inst.static_idx, vec![0, 5]);
        // long history → most recent max_seq items
        let inst = build_instance(&l, 1, 0, &[0, 1, 2, 3, 1], 3, 0.0);
        assert_eq!(inst.dyn_idx, vec![2, 3, 1]);
    }

    #[test]
    fn batch_flattening_roundtrip() {
        let l = FeatureLayout { n_users: 2, n_items: 4 };
        let insts =
            vec![build_instance(&l, 0, 1, &[2], 2, 1.0), build_instance(&l, 1, 3, &[0, 1], 2, 0.0)];
        let b = Batch::try_from_instances(&insts).expect("valid batch");
        assert_eq!(b.len, 2);
        assert_eq!(b.static_idx, vec![0, 3, 1, 5]);
        assert_eq!(b.dyn_idx, vec![PAD, 2, 0, 1]);
        assert_eq!(b.targets, vec![1.0, 0.0]);
        assert_eq!(b.candidate_item(&l, 0), 1);
        assert_eq!(b.candidate_item(&l, 1), 3);
    }

    #[test]
    fn empty_batch_is_an_error_not_a_crash() {
        assert_eq!(Batch::try_from_instances(&[]), Err(BatchError::Empty));
        let msg = BatchError::Empty.to_string();
        assert_eq!(msg, "empty batch");
    }

    #[test]
    fn ragged_widths_are_reported_with_index() {
        let l = FeatureLayout { n_users: 2, n_items: 4 };
        let good = build_instance(&l, 0, 1, &[2], 3, 1.0);
        let mut bad_dyn = build_instance(&l, 1, 2, &[0], 3, 0.0);
        bad_dyn.dyn_idx.push(PAD);
        assert_eq!(
            Batch::try_from_instances(&[good.clone(), bad_dyn]),
            Err(BatchError::RaggedDynamic { index: 1, expected: 3, got: 4 })
        );
        let mut bad_static = build_instance(&l, 1, 2, &[0], 3, 0.0);
        bad_static.static_idx.push(0);
        assert_eq!(
            Batch::try_from_instances(&[good, bad_static]),
            Err(BatchError::RaggedStatic { index: 1, expected: 2, got: 3 })
        );
    }

    #[test]
    fn with_candidates_swaps_only_item_feature() {
        let l = FeatureLayout { n_users: 2, n_items: 4 };
        let insts = vec![build_instance(&l, 0, 1, &[2], 2, 1.0)];
        let b = Batch::try_from_instances(&insts).expect("valid batch");
        let swapped = b.with_candidates(&l, &[3]);
        assert_eq!(swapped.static_idx, vec![0, 5]);
        assert_eq!(swapped.dyn_idx, b.dyn_idx);
        assert_eq!(swapped.candidate_item(&l, 0), 3);
    }

    #[test]
    fn subset_keeps_prefix_and_floor() {
        let ds = tiny_dataset();
        let half = ds.subset(0.5);
        // floor of 3 events keeps everything here
        assert_eq!(half.per_user[0].len(), 3);
        assert!(half.name.contains("0.5"));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn subset_validates_fraction() {
        let _ = tiny_dataset().subset(0.0);
    }
}
