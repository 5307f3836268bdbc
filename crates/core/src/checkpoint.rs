//! Engine checkpoints, and the frame every persisted engine file shares.
//!
//! A checkpoint captures what training paid for — learned path weights,
//! the full learned model (hyperplanes + Platt calibration) and the
//! tuned `min_sim` — so a restarted process skips straight to
//! resolution. It does not store profiles: a profile is a pure function
//! of the catalog and the join-path set, and recomputing one is cheaper
//! than decoding it, so the profile cache lives in memory only.
//!
//! File format (single file):
//!
//! ```text
//! DISTINCTCKPT3\n
//! <16 hex chars: FNV-1a-64 of the payload bytes>\n
//! <JSON payload>
//! ```
//!
//! The magic line's numeric suffix is the checkpoint **format version**
//! ([`CHECKPOINT_FORMAT_VERSION`]), repeated as a `format` field inside
//! the payload. A file written by a build with a different version is
//! refused with the typed [`DistinctError::VersionMismatch`] — never
//! reinterpreted under this build's schema, and never conflated with
//! corruption (the bytes are intact, just foreign). [`Frame`] is the one
//! implementation of this framing; the run manager's run-directory files
//! use it too, under their own magic.
//!
//! Saves commit through [`relstore::write_atomic`] (temp + rename) over
//! the [`Vfs`](relstore::Vfs) abstraction the store uses — so the
//! fault-injection harness can kill a checkpoint save mid-write and prove
//! the previous checkpoint survives. Loads verify the checksum before
//! parsing a byte: a torn or bit-flipped checkpoint surfaces as
//! [`DistinctError::CorruptCheckpoint`], never as a silently wrong model.
//!
//! A checkpoint is only valid against the engine it was trained on:
//! loading validates the join-path descriptions (weights are per path)
//! and the catalog's tuple count, and refuses on mismatch.

use crate::learn::{LearnedModel, PathWeights};
use crate::pipeline::{Distinct, DistinctError};
use relstore::{fnv1a64, write_atomic, StdVfs, Vfs};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Magic prefix of a checkpoint file's header line; the numeric suffix is
/// the format version.
pub const CHECKPOINT_MAGIC_PREFIX: &str = "DISTINCTCKPT";

/// Checkpoint format version this build reads and writes. Bumped whenever
/// the payload schema changes shape; loads of any other version fail with
/// [`DistinctError::VersionMismatch`].
pub const CHECKPOINT_FORMAT_VERSION: u32 = 3;

/// Magic header line of a checkpoint file (prefix + format version).
pub const CHECKPOINT_MAGIC: &str = "DISTINCTCKPT3";

/// A framed file kind: magic line `<prefix><version>`, FNV-1a-64
/// checksum line over the payload, JSON payload whose `format` field
/// repeats the version.
pub(crate) struct Frame {
    pub(crate) prefix: &'static str,
    pub(crate) version: u32,
}

const CHECKPOINT_FRAME: Frame = Frame {
    prefix: CHECKPOINT_MAGIC_PREFIX,
    version: CHECKPOINT_FORMAT_VERSION,
};

/// The typed error for a persisted file that fails verification.
pub(crate) fn corrupt(path: &Path, reason: impl Into<String>) -> DistinctError {
    DistinctError::CorruptCheckpoint {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

impl Frame {
    /// Serialize `value` and frame it; `what` names it in errors.
    pub(crate) fn encode<T: Serialize>(
        &self,
        what: &str,
        value: &T,
    ) -> Result<String, DistinctError> {
        let json = serde_json::to_string(value).map_err(|e| {
            DistinctError::Store(relstore::StoreError::Io {
                context: format!("serialize {what}"),
                reason: e.to_string(),
            })
        })?;
        Ok(format!(
            "{}{}\n{:016x}\n{json}",
            self.prefix,
            self.version,
            fnv1a64(json.as_bytes())
        ))
    }

    /// Verify the frame and parse its payload. Another version — in the
    /// magic line or in the payload's `format` field — is a foreign-build
    /// file ([`DistinctError::VersionMismatch`]); anything else that fails
    /// is corruption.
    pub(crate) fn decode<T: Deserialize>(
        &self,
        path: &Path,
        bytes: &[u8],
        format_of: impl Fn(&T) -> u32,
    ) -> Result<T, DistinctError> {
        let mismatch = |found| DistinctError::VersionMismatch {
            path: path.display().to_string(),
            found,
            expected: self.version,
        };
        let text =
            std::str::from_utf8(bytes).map_err(|_| corrupt(path, "file is not valid UTF-8"))?;
        let mut lines = text.splitn(3, '\n');
        let magic = lines.next().unwrap_or("");
        let version = magic.strip_prefix(self.prefix);
        if version != Some(self.version.to_string().as_str()) {
            if let Some(found) = version.and_then(|v| v.parse::<u32>().ok()) {
                return Err(mismatch(found));
            }
            return Err(corrupt(
                path,
                format!(
                    "bad magic `{magic}` (expected {}{})",
                    self.prefix, self.version
                ),
            ));
        }
        let declared = lines
            .next()
            .ok_or_else(|| corrupt(path, "missing checksum line"))?;
        let json = lines
            .next()
            .ok_or_else(|| corrupt(path, "missing payload"))?;
        let actual = format!("{:016x}", fnv1a64(json.as_bytes()));
        if declared != actual {
            return Err(corrupt(
                path,
                format!("checksum mismatch: header {declared}, payload {actual}"),
            ));
        }
        let value: T = serde_json::from_str(json)
            .map_err(|e| corrupt(path, format!("unparseable payload: {e}")))?;
        match format_of(&value) {
            found if found == self.version => Ok(value),
            found => Err(mismatch(found)),
        }
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct CheckpointPayload {
    /// Format version, repeated from the magic line so a re-framed payload
    /// cannot smuggle a foreign schema past the header check.
    format: u32,
    /// Join-path descriptions — the checkpoint's compatibility key.
    paths: Vec<String>,
    /// Tuple count of the catalog the engine was trained on.
    catalog_tuples: u64,
    min_sim: f64,
    weights: PathWeights,
    learned: Option<LearnedModel>,
}

impl Distinct {
    /// Serialize the engine's trained state to `path` through an explicit
    /// [`Vfs`] — the fault-injectable entry point.
    pub fn save_checkpoint_with(
        &self,
        path: &Path,
        vfs: &mut dyn Vfs,
    ) -> Result<(), DistinctError> {
        let payload = CheckpointPayload {
            format: CHECKPOINT_FORMAT_VERSION,
            paths: self.paths().descriptions.clone(),
            catalog_tuples: self.catalog().tuple_count() as u64,
            min_sim: self.config().min_sim,
            weights: self.weights().clone(),
            learned: self.learned().cloned(),
        };
        let blob = CHECKPOINT_FRAME.encode("checkpoint", &payload)?;
        let name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
            DistinctError::Config(format!("bad checkpoint path {}", path.display()))
        })?;
        let dir = path.parent().unwrap_or(Path::new(""));
        write_atomic(vfs, dir, name, blob.as_bytes()).map_err(DistinctError::Store)
    }

    /// Serialize the engine's trained state (weights, learned model,
    /// `min_sim`) to `path`, atomically.
    pub fn save_checkpoint(&self, path: &Path) -> Result<(), DistinctError> {
        self.save_checkpoint_with(path, &mut StdVfs)
    }

    /// Restore state saved by [`Distinct::save_checkpoint`] into this
    /// engine (which must be [`Distinct::prepare`]d over the same catalog
    /// with the same path-enumeration settings), through an explicit
    /// [`Vfs`].
    pub fn load_checkpoint_with(
        &mut self,
        path: &Path,
        vfs: &mut dyn Vfs,
    ) -> Result<(), DistinctError> {
        let bytes = vfs.read(path).map_err(|e| {
            DistinctError::Store(relstore::StoreError::Io {
                context: "read checkpoint".into(),
                reason: e.to_string(),
            })
        })?;
        let payload: CheckpointPayload =
            CHECKPOINT_FRAME.decode(path, &bytes, |p: &CheckpointPayload| p.format)?;
        if payload.paths != self.paths().descriptions {
            return Err(corrupt(
                path,
                "checkpoint was built for a different join-path set",
            ));
        }
        if payload.catalog_tuples != self.catalog().tuple_count() as u64 {
            return Err(corrupt(
                path,
                format!(
                    "checkpoint catalog had {} tuples, this one has {}",
                    payload.catalog_tuples,
                    self.catalog().tuple_count()
                ),
            ));
        }
        // The weights are the one install that can still fail; it
        // changes nothing when it does, so a failed load leaves the
        // engine exactly as it was.
        self.set_weights(payload.weights)
            .map_err(|_| corrupt(path, "weight dimensionality does not match path set"))?;
        self.set_min_sim(payload.min_sim);
        self.install_learned(payload.learned);
        Ok(())
    }

    /// Restore state saved by [`Distinct::save_checkpoint`].
    pub fn load_checkpoint(&mut self, path: &Path) -> Result<(), DistinctError> {
        self.load_checkpoint_with(path, &mut StdVfs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistinctConfig;
    use datagen::{AmbiguousSpec, World, WorldConfig};
    use relstore::{FaultPlan, FaultyVfs};

    fn dataset() -> datagen::DblpDataset {
        let mut config = WorldConfig::tiny(21);
        config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![6, 5])];
        datagen::to_catalog(&World::generate(config)).unwrap()
    }

    fn engine(d: &datagen::DblpDataset) -> Distinct {
        let config = DistinctConfig {
            training: crate::config::TrainingConfig {
                positives: 60,
                negatives: 60,
                ..Default::default()
            },
            ..Default::default()
        };
        Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap()
    }

    fn temp_file(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("distinct_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("engine.ckpt")
    }

    #[test]
    fn checkpoint_round_trip_restores_weights_and_model() {
        let d = dataset();
        let mut trained = engine(&d);
        trained.train().unwrap();
        let refs = trained.references_of("Wei Wang");
        let expected = trained
            .resolve(&crate::request::ResolveRequest::new(&refs))
            .clustering;

        let path = temp_file("rt");
        trained.save_checkpoint(&path).unwrap();

        let mut fresh = engine(&d);
        fresh.load_checkpoint(&path).unwrap();
        assert_eq!(fresh.weights(), trained.weights());
        assert!(fresh.learned().is_some());
        // Profiles are not persisted: the restored engine recomputes them
        // and resolves bit-identically.
        assert_eq!(fresh.cached_profiles(), 0);
        let outcome = fresh.resolve(&crate::request::ResolveRequest::new(&refs));
        assert_eq!(outcome.clustering.labels, expected.labels);
        assert_eq!(
            outcome.clustering.dendrogram.merges(),
            expected.dendrogram.merges()
        );
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn checkpoint_save_is_deterministic() {
        let d = dataset();
        let mut e = engine(&d);
        e.train().unwrap();
        let p1 = temp_file("det1");
        let p2 = temp_file("det2");
        e.save_checkpoint(&p1).unwrap();
        e.save_checkpoint(&p2).unwrap();
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_dir_all(p1.parent().unwrap()).unwrap();
        std::fs::remove_dir_all(p2.parent().unwrap()).unwrap();
    }

    #[test]
    fn corrupted_checkpoint_is_rejected_at_every_byte() {
        let d = dataset();
        let mut e = engine(&d);
        e.train().unwrap();
        let path = temp_file("flip");
        e.save_checkpoint(&path).unwrap();
        let blob = std::fs::read(&path).unwrap();
        let untrained = engine(&d).weights().clone();
        // Flip one bit at a spread of positions; every corruption must be
        // caught (magic, checksum line, or payload checksum mismatch).
        let step = (blob.len() / 40).max(1);
        for pos in (0..blob.len()).step_by(step) {
            let mut bad = blob.clone();
            bad[pos] ^= 0x04;
            std::fs::write(&path, &bad).unwrap();
            let mut fresh = engine(&d);
            let err = fresh.load_checkpoint(&path).unwrap_err();
            // A flip landing on the magic's version digit reads as a
            // foreign version; everywhere else it is corruption. Both are
            // rejections that install nothing.
            assert!(
                matches!(
                    err,
                    DistinctError::CorruptCheckpoint { .. } | DistinctError::VersionMismatch { .. }
                ),
                "byte {pos}: expected a rejection, got {err}"
            );
            // The failed load installed nothing.
            assert!(fresh.learned().is_none());
            assert_eq!(fresh.weights(), &untrained);
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let d = dataset();
        let mut e = engine(&d);
        e.train().unwrap();
        let path = temp_file("trunc");
        e.save_checkpoint(&path).unwrap();
        let blob = std::fs::read(&path).unwrap();
        for keep in [0, 1, CHECKPOINT_MAGIC.len(), blob.len() / 2, blob.len() - 1] {
            std::fs::write(&path, &blob[..keep]).unwrap();
            let mut fresh = engine(&d);
            assert!(
                fresh.load_checkpoint(&path).is_err(),
                "prefix of {keep} bytes loaded"
            );
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn killed_checkpoint_save_preserves_the_previous_checkpoint() {
        let d = dataset();
        let mut e = engine(&d);
        e.train().unwrap();
        let path = temp_file("kill");
        e.save_checkpoint(&path).unwrap();
        let committed = std::fs::read(&path).unwrap();

        // Change the state so a second save differs, then kill its write.
        e.set_min_sim(e.config().min_sim + 0.125);
        for plan in [
            FaultPlan::fail_nth_write(1),
            FaultPlan::torn_nth_write(1, 13),
        ] {
            let mut vfs = FaultyVfs::new(plan);
            assert!(e.save_checkpoint_with(&path, &mut vfs).is_err());
            // The committed checkpoint file is untouched and still loads.
            assert_eq!(std::fs::read(&path).unwrap(), committed);
            let mut fresh = engine(&d);
            fresh.load_checkpoint(&path).unwrap();
        }

        // A bit flip succeeds at write time but is caught at load.
        let mut vfs = FaultyVfs::new(FaultPlan::bit_flip_nth_write(1, 99));
        e.save_checkpoint_with(&path, &mut vfs).unwrap();
        let mut fresh = engine(&d);
        assert!(matches!(
            fresh.load_checkpoint(&path).unwrap_err(),
            DistinctError::CorruptCheckpoint { .. }
        ));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn foreign_format_version_is_a_typed_mismatch() {
        let d = dataset();
        let mut e = engine(&d);
        e.train().unwrap();
        let path = temp_file("ver");
        e.save_checkpoint(&path).unwrap();
        let blob = std::fs::read_to_string(&path).unwrap();

        // Retired versions — 1 (the pre-versioned-payload format) and 2
        // (which persisted the profile cache): typed mismatches from the
        // magic line, not a confusing bad-magic error.
        let untrained = engine(&d).weights().clone();
        for old in [1u32, 2] {
            let foreign = blob.replacen(CHECKPOINT_MAGIC, &format!("DISTINCTCKPT{old}"), 1);
            std::fs::write(&path, &foreign).unwrap();
            let mut fresh = engine(&d);
            match fresh.load_checkpoint(&path).unwrap_err() {
                DistinctError::VersionMismatch {
                    found, expected, ..
                } => {
                    assert_eq!(found, old);
                    assert_eq!(expected, CHECKPOINT_FORMAT_VERSION);
                }
                other => panic!("expected VersionMismatch, got {other}"),
            }
            assert!(fresh.learned().is_none());
            assert_eq!(fresh.weights(), &untrained);
        }

        // A re-framed payload smuggling a foreign `format` field past a
        // current magic line is caught by the payload check.
        let (_, rest) = blob.split_once('\n').unwrap();
        let (_, json) = rest.split_once('\n').unwrap();
        let smuggled = json.replacen(
            &format!("\"format\":{CHECKPOINT_FORMAT_VERSION}"),
            "\"format\":99",
            1,
        );
        assert_ne!(smuggled, json, "payload must carry the format field");
        let reframed = format!(
            "{CHECKPOINT_MAGIC}\n{:016x}\n{smuggled}",
            fnv1a64(smuggled.as_bytes())
        );
        std::fs::write(&path, reframed).unwrap();
        let mut fresh = engine(&d);
        assert!(matches!(
            fresh.load_checkpoint(&path).unwrap_err(),
            DistinctError::VersionMismatch { found: 99, .. }
        ));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn checkpoint_for_a_different_catalog_is_refused() {
        let d = dataset();
        let mut e = engine(&d);
        e.train().unwrap();
        let path = temp_file("xcat");
        e.save_checkpoint(&path).unwrap();

        let mut other_cfg = WorldConfig::tiny(22);
        other_cfg.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![4, 4])];
        let other = datagen::to_catalog(&World::generate(other_cfg)).unwrap();
        let mut fresh = engine(&other);
        assert!(matches!(
            fresh.load_checkpoint(&path).unwrap_err(),
            DistinctError::CorruptCheckpoint { .. }
        ));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
