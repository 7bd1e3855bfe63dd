#![warn(missing_docs)]

//! # seqfm-data
//!
//! Datasets for the SeqFM reproduction: the shared chronological data model,
//! leave-one-out evaluation splits, negative samplers, batch construction,
//! and three synthetic generators standing in for the paper's six public
//! datasets (Gowalla, Foursquare, Trivago, Taobao, Beauty, Toys). The
//! workspace builds and runs offline with no dataset downloads, so each
//! generator plants the sequential signal its task's datasets are used for —
//! the comparisons the paper draws keep their shape, and trends rather than
//! absolute values are the target (see the README's "Regenerating the
//! paper's artifacts"):
//!
//! * [`ranking`] — POI check-ins with **order-2 Markov cluster transitions**;
//! * [`ctr`] — click logs mixing **long-term preference** with **session
//!   intent**;
//! * [`rating`] — explicit ratings = matrix factorisation + **sequential
//!   category drift**.
//!
//! Every generator is a pure function of its config (seeded RNG), so all
//! experiments in this workspace are exactly reproducible.

pub mod common;
pub mod ctr;
pub mod genutil;
pub mod io;
pub mod ranking;
pub mod rating;
pub mod sampler;
pub mod split;

pub use common::{
    build_instance, Batch, BatchError, Dataset, DatasetStats, Event, FeatureLayout, Instance, PAD,
};
pub use genutil::ConfigError;
pub use sampler::NegativeSampler;
pub use split::LeaveOneOut;

/// Dataset scale selector: `Small` runs every experiment in seconds on a
/// laptop CPU; `Paper` multiplies user/item counts by 10× for shape checks
/// closer to the original sizes (the published datasets are larger still —
/// absolute metric values are not expected to match either way).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// CI-friendly sizes (default everywhere).
    Small,
    /// 10× users/items.
    Paper,
}

impl Scale {
    /// Multiplier applied to user/item counts.
    pub fn factor(self) -> usize {
        match self {
            Scale::Small => 1,
            Scale::Paper => 10,
        }
    }
}

/// The six dataset presets of the paper's Table I, in paper order.
pub fn all_presets(scale: Scale) -> Vec<Dataset> {
    vec![
        ranking::generate(&ranking::RankingConfig::gowalla(scale)).expect("preset valid"),
        ranking::generate(&ranking::RankingConfig::foursquare(scale)).expect("preset valid"),
        ctr::generate(&ctr::CtrConfig::trivago(scale)).expect("preset valid"),
        ctr::generate(&ctr::CtrConfig::taobao(scale)).expect("preset valid"),
        rating::generate(&rating::RatingConfig::beauty(scale)).expect("preset valid"),
        rating::generate(&rating::RatingConfig::toys(scale)).expect("preset valid"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_generate_and_validate() {
        let sets = all_presets(Scale::Small);
        assert_eq!(sets.len(), 6);
        for ds in &sets {
            ds.validate(3);
            assert!(ds.n_instances() > 500, "{} too small: {}", ds.name, ds.n_instances());
        }
        // names match the paper's dataset order
        let names: Vec<&str> = sets.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "gowalla-sim",
                "foursquare-sim",
                "trivago-sim",
                "taobao-sim",
                "beauty-sim",
                "toys-sim"
            ]
        );
    }

    #[test]
    fn scale_factor() {
        assert_eq!(Scale::Small.factor(), 1);
        assert_eq!(Scale::Paper.factor(), 10);
    }
}
