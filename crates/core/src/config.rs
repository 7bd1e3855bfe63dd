//! SeqFM hyperparameters and ablation switches.

/// Table V's switches: the five components the paper's ablation study
/// (§VI-C) removes one at a time.
///
/// Every switch defaults to the full model; turning one off produces the
/// corresponding "Remove X" variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ablation {
    /// Static-view self-attention head ("Remove SV" when false).
    pub static_view: bool,
    /// Dynamic-view (causal) self-attention head ("Remove DV" when false).
    pub dynamic_view: bool,
    /// Cross-view self-attention head ("Remove CV" when false).
    pub cross_view: bool,
    /// Residual connections in the FFN ("Remove RC" when false).
    pub residual: bool,
    /// Layer normalisation in the FFN ("Remove LN" when false).
    pub layer_norm: bool,
}

impl Default for Ablation {
    fn default() -> Self {
        Ablation {
            static_view: true,
            dynamic_view: true,
            cross_view: true,
            residual: true,
            layer_norm: true,
        }
    }
}

impl Ablation {
    /// The paper's Table V variants, in paper order, with display names.
    pub fn table5_variants() -> Vec<(&'static str, Ablation)> {
        let base = Ablation::default();
        vec![
            ("Default", base),
            ("Remove SV", Ablation { static_view: false, ..base }),
            ("Remove DV", Ablation { dynamic_view: false, ..base }),
            ("Remove CV", Ablation { cross_view: false, ..base }),
            ("Remove RC", Ablation { residual: false, ..base }),
            ("Remove LN", Ablation { layer_norm: false, ..base }),
        ]
    }

    /// Number of active views (width of the aggregated representation is
    /// `views × d`, Eq. 17).
    pub fn active_views(&self) -> usize {
        usize::from(self.static_view)
            + usize::from(self.dynamic_view)
            + usize::from(self.cross_view)
    }
}

/// SeqFM hyperparameters (paper §IV-D / §V-D).
///
/// The paper's unified setting is `{d=64, l=1, n˙=20, ρ=0.6}`; the workspace
/// default shrinks `d` to 32 so every experiment runs quickly on CPU (the
/// paper itself shows d=16 already beats nearly all baselines, Fig. 3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeqFmConfig {
    /// Latent dimension `d` (factorization factor).
    pub d: usize,
    /// Depth `l` of the shared residual feed-forward network.
    pub layers: usize,
    /// Maximum dynamic sequence length `n˙`.
    pub max_seq: usize,
    /// Dropout ratio ρ (drop probability) on FFN layers.
    pub dropout: f32,
    /// Ablation switches.
    pub ablation: Ablation,
}

impl Default for SeqFmConfig {
    fn default() -> Self {
        SeqFmConfig { d: 32, layers: 1, max_seq: 20, dropout: 0.6, ablation: Ablation::default() }
    }
}

impl SeqFmConfig {
    /// The paper's exact unified parameter set `{d=64, l=1, n˙=20, ρ=0.6}`.
    pub fn paper() -> Self {
        SeqFmConfig { d: 64, ..Default::default() }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics if dimensions are zero, dropout is outside `[0, 1)`, or no view
    /// is active.
    pub fn validate(&self) {
        assert!(self.d > 0, "latent dimension must be positive");
        assert!(self.layers > 0, "FFN depth must be positive");
        assert!(self.max_seq > 0, "max sequence length must be positive");
        assert!((0.0..1.0).contains(&self.dropout), "dropout must be in [0,1)");
        assert!(self.ablation.active_views() > 0, "at least one view must remain active");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_shape() {
        let c = SeqFmConfig::default();
        assert_eq!(c.layers, 1);
        assert_eq!(c.max_seq, 20);
        assert!((c.dropout - 0.6).abs() < 1e-6);
        assert_eq!(c.ablation.active_views(), 3);
        c.validate();
        assert_eq!(SeqFmConfig::paper().d, 64);
    }

    #[test]
    fn table5_has_six_variants_in_paper_order() {
        let v = Ablation::table5_variants();
        assert_eq!(v.len(), 6);
        assert_eq!(v[0].0, "Default");
        assert!(!v[1].1.static_view);
        assert!(!v[2].1.dynamic_view);
        assert!(!v[3].1.cross_view);
        assert!(!v[4].1.residual);
        assert!(!v[5].1.layer_norm);
        // each variant differs from default in exactly the named switch
        for (name, ab) in &v[1..] {
            assert_eq!(
                ab.active_views() + usize::from(ab.residual) + usize::from(ab.layer_norm),
                4,
                "variant {name} should disable exactly one switch"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one view")]
    fn all_views_removed_is_invalid() {
        let mut c = SeqFmConfig::default();
        c.ablation.static_view = false;
        c.ablation.dynamic_view = false;
        c.ablation.cross_view = false;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "dropout")]
    fn dropout_one_is_invalid() {
        let c = SeqFmConfig { dropout: 1.0, ..Default::default() };
        c.validate();
    }
}
