//! Immutable, shareable parameter snapshots for inference.
//!
//! A [`FrozenParams`] is the read-only counterpart of [`ParamStore`]: the
//! same named tensors, but with no gradients, no interior mutability, and no
//! `&mut` surface at all — so a single snapshot behind an `Arc` can be read
//! concurrently by any number of serving threads. Freezing copies the values
//! once; after that, scoring never touches the training store again.

use crate::store::ParamStore;
use seqfm_tensor::Tensor;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Index of a parameter inside a [`FrozenParams`] snapshot.
///
/// Resolved once by name (see [`FrozenParams::index_of`]) and then used for
/// hash-free access on the scoring hot path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FrozenId(usize);

/// Version stamp of a parameter snapshot.
///
/// Epochs are handed out by [`ParamStore::freeze_versioned`] in strictly
/// increasing order per store, so any layer that derives state from a
/// snapshot (view caches, retrieval indexes) can key on the epoch and
/// detect staleness with a single integer compare; a copy made by
/// [`FrozenParams::map_values`] keeps its source's epoch. Plain
/// [`ParamStore::freeze`] stamps [`ModelEpoch::ZERO`] — the "unversioned /
/// offline" epoch — which keeps every pre-existing call site byte-for-byte
/// unchanged.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ModelEpoch(pub u64);

impl ModelEpoch {
    /// The unversioned epoch stamped by plain [`ParamStore::freeze`].
    pub const ZERO: ModelEpoch = ModelEpoch(0);

    /// The raw counter value.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ModelEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An immutable snapshot of model parameters, keyed by name.
///
/// `FrozenParams` is `Send + Sync` by construction (plain owned data), so it
/// can be wrapped in an [`Arc`] and shared across serving threads.
pub struct FrozenParams {
    names: Vec<String>,
    values: Vec<Tensor>,
    by_name: HashMap<String, usize>,
    epoch: ModelEpoch,
}

impl FrozenParams {
    /// Copies every parameter value out of a [`ParamStore`], stamped with
    /// the unversioned [`ModelEpoch::ZERO`].
    pub fn from_store(ps: &ParamStore) -> Self {
        Self::from_store_versioned(ps, ModelEpoch::ZERO)
    }

    /// Copies every parameter value out of a [`ParamStore`], stamped with
    /// `epoch`. Callers that need monotone stamps should go through
    /// [`ParamStore::freeze_versioned`] instead of picking epochs by hand.
    pub fn from_store_versioned(ps: &ParamStore, epoch: ModelEpoch) -> Self {
        let mut names = Vec::with_capacity(ps.len());
        let mut values = Vec::with_capacity(ps.len());
        let mut by_name = HashMap::with_capacity(ps.len());
        for (_, p) in ps.iter() {
            by_name.insert(p.name().to_string(), values.len());
            names.push(p.name().to_string());
            values.push(p.value().clone());
        }
        FrozenParams { names, values, by_name, epoch }
    }

    /// Convenience: freeze straight into an [`Arc`].
    pub fn shared(ps: &ParamStore) -> Arc<Self> {
        Arc::new(Self::from_store(ps))
    }

    /// The epoch this snapshot was stamped with at freeze time.
    pub fn epoch(&self) -> ModelEpoch {
        self.epoch
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the snapshot holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalars across all parameters.
    pub fn total_elems(&self) -> usize {
        self.values.iter().map(Tensor::numel).sum()
    }

    /// Resolves a parameter name to its stable index.
    pub fn index_of(&self, name: &str) -> Option<FrozenId> {
        self.by_name.get(name).copied().map(FrozenId)
    }

    /// Looks up a parameter value by name.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.by_name.get(name).map(|&i| &self.values[i])
    }

    /// Value by pre-resolved index — the hot-path accessor.
    pub fn value(&self, id: FrozenId) -> &Tensor {
        &self.values[id.0]
    }

    /// Name of a parameter by index.
    pub fn name(&self, id: FrozenId) -> &str {
        &self.names[id.0]
    }

    /// A snapshot with the same names, order and epoch whose value at each
    /// id is `f(id, value)`: a transformed copy of the same parameters.
    pub fn map_values(&self, mut f: impl FnMut(FrozenId, &Tensor) -> Tensor) -> Self {
        let values = self.values.iter().enumerate().map(|(i, v)| f(FrozenId(i), v)).collect();
        let (names, by_name) = (self.names.clone(), self.by_name.clone());
        FrozenParams { names, values, by_name, epoch: self.epoch }
    }

    /// Iterates over `(name, value)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.names.iter().map(String::as_str).zip(self.values.iter())
    }
}

impl fmt::Debug for FrozenParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FrozenParams ({} params, {} elems, {})",
            self.len(),
            self.total_elems(),
            self.epoch
        )?;
        for (name, v) in self.iter() {
            writeln!(f, "  {} {}", name, v.shape())?;
        }
        Ok(())
    }
}

impl ParamStore {
    /// Snapshots every parameter value into an immutable [`FrozenParams`]
    /// stamped [`ModelEpoch::ZERO`] — the offline, unversioned path.
    pub fn freeze(&self) -> FrozenParams {
        FrozenParams::from_store(self)
    }

    /// Snapshots every parameter value into a shared [`FrozenParams`]
    /// stamped with the store's next monotone [`ModelEpoch`].
    ///
    /// Successive calls on the same store return strictly increasing epochs
    /// starting at 1, so epoch equality is snapshot identity for everything
    /// derived downstream (view caches, retrieval indexes).
    pub fn freeze_versioned(&mut self) -> Arc<FrozenParams> {
        let epoch = ModelEpoch(self.bump_epoch());
        Arc::new(FrozenParams::from_store_versioned(self, epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqfm_tensor::Shape;

    fn sample() -> ParamStore {
        let mut ps = ParamStore::new();
        ps.add_dense("w", Tensor::from_vec(Shape::d2(2, 2), vec![1.0, 2.0, 3.0, 4.0]));
        ps.add_sparse("emb", Tensor::from_vec(Shape::d2(3, 2), vec![0.5; 6]));
        ps
    }

    #[test]
    fn freeze_copies_values_and_preserves_shapes() {
        let mut ps = sample();
        let frozen = ps.freeze();
        assert_eq!(frozen.len(), 2);
        assert_eq!(frozen.total_elems(), ps.total_elems());
        assert_eq!(frozen.get("w").unwrap().data(), ps.value(ps.id_of("w").unwrap()).data());
        assert_eq!(frozen.get("emb").unwrap().shape(), Shape::d2(3, 2));
        // A later optimizer step must not leak into the snapshot.
        let w = ps.id_of("w").unwrap();
        ps.value_mut(w).data_mut()[0] = 99.0;
        assert_eq!(frozen.get("w").unwrap().data()[0], 1.0);
    }

    #[test]
    fn index_lookup_matches_name_lookup() {
        let ps = sample();
        let frozen = ps.freeze();
        let id = frozen.index_of("emb").expect("emb registered");
        assert_eq!(frozen.value(id).data(), frozen.get("emb").unwrap().data());
        assert_eq!(frozen.name(id), "emb");
        assert!(frozen.index_of("nope").is_none());
        assert!(!frozen.is_empty());
    }

    #[test]
    fn versioned_freezes_are_strictly_monotone() {
        let mut ps = sample();
        assert_eq!(ps.freeze().epoch(), ModelEpoch::ZERO);
        let first = ps.freeze_versioned();
        let second = ps.freeze_versioned();
        assert_eq!(first.epoch(), ModelEpoch(1));
        assert_eq!(second.epoch(), ModelEpoch(2));
        assert!(first.epoch() < second.epoch());
        // Plain freeze stays on the unversioned epoch and does not advance
        // the counter.
        assert_eq!(ps.freeze().epoch(), ModelEpoch::ZERO);
        assert_eq!(ps.freeze_versioned().epoch(), ModelEpoch(3));
        assert_eq!(format!("{}", ModelEpoch(3)), "e3");
    }

    #[test]
    fn versioned_freeze_snapshots_current_values() {
        let mut ps = sample();
        let w = ps.id_of("w").unwrap();
        let before = ps.freeze_versioned();
        ps.value_mut(w).data_mut()[0] = 42.0;
        let after = ps.freeze_versioned();
        assert_eq!(before.get("w").unwrap().data()[0], 1.0);
        assert_eq!(after.get("w").unwrap().data()[0], 42.0);
    }

    #[test]
    fn map_values_keeps_names_order_and_epoch() {
        let mut ps = sample();
        let frozen = ps.freeze_versioned();
        let w = frozen.index_of("w").unwrap();
        let mapped = frozen.map_values(|id, t| if id == w { t.map(|x| -x) } else { t.clone() });
        assert_eq!(mapped.epoch(), frozen.epoch());
        let names: Vec<&str> = mapped.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["w", "emb"]);
        assert_eq!(mapped.value(w).data(), &[-1.0, -2.0, -3.0, -4.0]);
        assert_eq!(mapped.get("emb").unwrap().data(), frozen.get("emb").unwrap().data());
    }

    #[test]
    fn frozen_params_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrozenParams>();
        assert_send_sync::<Arc<FrozenParams>>();
    }
}
