//! Binary model checkpoints.
//!
//! Serialises every parameter value of a [`ParamStore`] into a compact,
//! versioned binary blob (via the `bytes` crate) and restores it by parameter
//! name with shape verification. Optimizer state is deliberately not
//! persisted — checkpoints are for inference and experiment reproducibility,
//! matching what the paper's released code shipped.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use seqfm_autograd::ParamStore;
use std::collections::HashSet;
use std::fmt;

const MAGIC: &[u8; 4] = b"SQFM";
const VERSION: u16 = 1;

/// Errors produced while decoding a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Blob does not start with the `SQFM` magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Blob ended unexpectedly.
    Truncated,
    /// Checkpoint contains a parameter the store does not know.
    UnknownParam(String),
    /// Shape on disk disagrees with the registered parameter.
    ShapeMismatch {
        /// Parameter name.
        name: String,
        /// Element count in the blob.
        stored: usize,
        /// Element count registered in the store.
        expected: usize,
    },
    /// Store has parameters the checkpoint lacks.
    MissingParams(usize),
    /// Checkpoint lists the same parameter more than once.
    DuplicateParam(String),
    /// A stored element is NaN or ±∞.
    NonFinite {
        /// Parameter name.
        name: String,
    },
    /// Reading or writing a checkpoint file failed. Holds
    /// `"<io error kind>: <message>"` rather than the unclonable
    /// [`std::io::Error`] itself.
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a SeqFM checkpoint (bad magic)"),
            Self::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            Self::Truncated => write!(f, "checkpoint truncated"),
            Self::UnknownParam(n) => write!(f, "checkpoint has unknown parameter `{n}`"),
            Self::ShapeMismatch { name, stored, expected } => {
                write!(f, "parameter `{name}`: {stored} elements stored, {expected} expected")
            }
            Self::MissingParams(n) => write!(f, "checkpoint is missing {n} parameter(s)"),
            Self::DuplicateParam(n) => write!(f, "checkpoint lists parameter `{n}` twice"),
            Self::NonFinite { name } => write!(f, "parameter `{name}` holds a non-finite value"),
            Self::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Encodes all parameter values.
pub fn save(ps: &ParamStore) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + ps.total_elems() * 4);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(ps.len() as u32);
    for (_, p) in ps.iter() {
        let name = p.name().as_bytes();
        buf.put_u16_le(name.len() as u16);
        buf.put_slice(name);
        buf.put_u32_le(p.value().numel() as u32);
        for &v in p.value().data() {
            buf.put_f32_le(v);
        }
    }
    buf.freeze()
}

/// Restores parameter values by name.
///
/// Every parameter present in the blob must exist in the store with a
/// matching element count and finite values, and every store parameter must
/// appear in the blob exactly once. Entries are committed as they are
/// decoded, so the store is partially overwritten when an error is returned.
///
/// # Errors
/// [`CheckpointError::BadMagic`] / [`CheckpointError::BadVersion`] /
/// [`CheckpointError::Truncated`] for a malformed blob;
/// [`CheckpointError::UnknownParam`], [`CheckpointError::ShapeMismatch`],
/// [`CheckpointError::DuplicateParam`] or [`CheckpointError::NonFinite`] for
/// the first offending entry; [`CheckpointError::MissingParams`] when the
/// blob ends with store parameters still unrestored.
pub fn load(ps: &mut ParamStore, blob: &[u8]) -> Result<(), CheckpointError> {
    let mut buf = blob;
    if buf.remaining() < 10 {
        return Err(CheckpointError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let count = buf.get_u32_le() as usize;
    let mut restored = HashSet::new();
    for _ in 0..count {
        if buf.remaining() < 2 {
            return Err(CheckpointError::Truncated);
        }
        let name_len = buf.get_u16_le() as usize;
        if buf.remaining() < name_len + 4 {
            return Err(CheckpointError::Truncated);
        }
        let name = String::from_utf8_lossy(&buf[..name_len]).into_owned();
        buf.advance(name_len);
        let numel = buf.get_u32_le() as usize;
        if buf.remaining() < numel * 4 {
            return Err(CheckpointError::Truncated);
        }
        let id = ps.id_of(&name).ok_or_else(|| CheckpointError::UnknownParam(name.clone()))?;
        let expected = ps.value(id).numel();
        if expected != numel {
            return Err(CheckpointError::ShapeMismatch { name, stored: numel, expected });
        }
        // A repeated entry would otherwise stand in for a missing one in
        // the completeness count below.
        if !restored.insert(id) {
            return Err(CheckpointError::DuplicateParam(name));
        }
        for v in ps.value_mut(id).data_mut() {
            *v = buf.get_f32_le();
            if !v.is_finite() {
                return Err(CheckpointError::NonFinite { name });
            }
        }
    }
    if restored.len() < ps.len() {
        return Err(CheckpointError::MissingParams(ps.len() - restored.len()));
    }
    Ok(())
}

/// Saves all parameter values to a file (see [`save`] for the format).
///
/// # Errors
/// [`CheckpointError::Io`] if the file cannot be written.
pub fn save_file(
    ps: &ParamStore,
    path: impl AsRef<std::path::Path>,
) -> Result<(), CheckpointError> {
    let blob = save(ps);
    std::fs::write(path, &blob).map_err(io_err)
}

/// Restores parameter values from a file written by [`save_file`].
///
/// # Errors
/// [`CheckpointError::Io`] if the file cannot be read, or any decoding error
/// of [`load`].
pub fn load_file(
    ps: &mut ParamStore,
    path: impl AsRef<std::path::Path>,
) -> Result<(), CheckpointError> {
    let blob = std::fs::read(path).map_err(io_err)?;
    load(ps, &blob)
}

fn io_err(e: std::io::Error) -> CheckpointError {
    CheckpointError::Io(format!("{}: {e}", e.kind()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqfm_tensor::{Shape, Tensor};

    fn sample_store() -> ParamStore {
        let mut ps = ParamStore::new();
        ps.add_dense("w", Tensor::from_vec(Shape::d2(2, 2), vec![1.0, -2.0, 3.5, 0.25]));
        ps.add_sparse("emb", Tensor::from_vec(Shape::d2(3, 2), vec![0.1; 6]));
        ps
    }

    #[test]
    fn roundtrip_restores_exact_values() {
        let ps = sample_store();
        let blob = save(&ps);
        let mut fresh = sample_store();
        // scramble
        for id in fresh.ids() {
            for v in fresh.value_mut(id).data_mut() {
                *v = 99.0;
            }
        }
        load(&mut fresh, &blob).expect("roundtrip");
        for ((_, a), (_, b)) in ps.iter().zip(fresh.iter()) {
            assert_eq!(a.value().data(), b.value().data());
        }
    }

    #[test]
    fn rejects_garbage() {
        let mut ps = sample_store();
        assert_eq!(load(&mut ps, b"nope"), Err(CheckpointError::Truncated));
        assert_eq!(load(&mut ps, b"NOPE------"), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn rejects_truncated_blob() {
        let ps = sample_store();
        let blob = save(&ps);
        let mut fresh = sample_store();
        let cut = &blob[..blob.len() - 3];
        assert_eq!(load(&mut fresh, cut), Err(CheckpointError::Truncated));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let ps = sample_store();
        let blob = save(&ps);
        let mut other = ParamStore::new();
        other.add_dense("w", Tensor::zeros(Shape::d2(2, 3))); // 6 elems, not 4
        other.add_sparse("emb", Tensor::zeros(Shape::d2(3, 2)));
        match load(&mut other, &blob) {
            Err(CheckpointError::ShapeMismatch { name, stored, expected }) => {
                assert_eq!(name, "w");
                assert_eq!(stored, 4);
                assert_eq!(expected, 6);
            }
            other => panic!("expected shape mismatch, got {other:?}"),
        }
    }

    #[test]
    fn file_roundtrip_and_io_errors() {
        let ps = sample_store();
        let dir = std::env::temp_dir().join("seqfm_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.sqfm");
        save_file(&ps, &path).expect("save_file");
        let mut fresh = sample_store();
        for id in fresh.ids() {
            for v in fresh.value_mut(id).data_mut() {
                *v = -7.0;
            }
        }
        load_file(&mut fresh, &path).expect("load_file");
        for ((_, a), (_, b)) in ps.iter().zip(fresh.iter()) {
            assert_eq!(a.value().data(), b.value().data());
        }
        std::fs::remove_file(&path).unwrap();
        // Missing file → Io variant, not a panic.
        match load_file(&mut fresh, dir.join("does_not_exist.sqfm")) {
            Err(CheckpointError::Io(msg)) => assert!(!msg.is_empty()),
            other => panic!("expected Io error, got {other:?}"),
        }
        // Unwritable destination (the directory itself) → Io variant.
        match save_file(&ps, &dir) {
            Err(CheckpointError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    /// Re-encodes `entries` as a blob by hand, so a test can repeat or
    /// poison an entry `save` would never write.
    fn blob_of(entries: &[(&str, &[f32])]) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u32_le(entries.len() as u32);
        for (name, values) in entries {
            buf.put_u16_le(name.len() as u16);
            buf.put_slice(name.as_bytes());
            buf.put_u32_le(values.len() as u32);
            for &v in *values {
                buf.put_f32_le(v);
            }
        }
        buf.freeze()
    }

    #[test]
    fn a_repeated_entry_does_not_stand_in_for_a_missing_one() {
        // Two entries for a two-parameter store, but both are `w`: `emb`
        // would keep its initial values behind an `Ok(())`.
        let w = [1.0, 2.0, 3.0, 4.0];
        let blob = blob_of(&[("w", &w), ("w", &w)]);
        let mut ps = sample_store();
        assert_eq!(load(&mut ps, &blob), Err(CheckpointError::DuplicateParam("w".into())));
        // And once duplicates are out, completeness counts parameters.
        let blob = blob_of(&[("w", &w)]);
        assert_eq!(load(&mut sample_store(), &blob), Err(CheckpointError::MissingParams(1)));
    }

    #[test]
    fn rejects_non_finite_values() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let blob = blob_of(&[("w", &[1.0, bad, 3.0, 4.0]), ("emb", &[0.5; 6])]);
            let mut ps = sample_store();
            assert_eq!(
                load(&mut ps, &blob),
                Err(CheckpointError::NonFinite { name: "w".into() }),
                "{bad} must not load"
            );
        }
    }

    #[test]
    fn rejects_unknown_and_missing_params() {
        let ps = sample_store();
        let blob = save(&ps);
        // Store without `emb`: first decoded param `w` works, `emb` unknown.
        let mut partial = ParamStore::new();
        partial.add_dense("w", Tensor::zeros(Shape::d2(2, 2)));
        assert_eq!(load(&mut partial, &blob), Err(CheckpointError::UnknownParam("emb".into())));
        // Store with an extra parameter: blob is missing it.
        let mut extra = sample_store();
        extra.add_dense("extra", Tensor::zeros(Shape::d1(1)));
        assert_eq!(load(&mut extra, &blob), Err(CheckpointError::MissingParams(1)));
    }
}
