//! The checkpoint manifest: the commit record of a checkpoint directory.
//!
//! A checkpoint directory holds one snapshot file per shard plus
//! [`MANIFEST_FILE`], written *last* and atomically — the manifest is the
//! commit point.  Shard files are *generation-named*
//! (`shard-00003.g00000007.mdrrsnap` is shard 3 of checkpoint generation
//! 7): a new checkpoint writes a complete new generation of shard files
//! *beside* the committed one, then commits the manifest naming the new
//! files.  A crash at any single operation therefore leaves either the
//! old complete checkpoint (old manifest, old files untouched) or the new
//! complete one — never a manifest pointing at half-replaced shard files.
//! The superseded generation is not deleted: its files stay as spares,
//! which the next checkpoint renames and overwrites in place instead of
//! creating fresh files.  A spare is any shard file the committed
//! manifest does not list.  Legacy un-suffixed
//! names (`shard-00003.mdrrsnap`) parse as generation 0, so pre-existing
//! checkpoint directories restore and upgrade in place.
//!
//! This module owns the manifest schema, the file-name grammar and the
//! one reader of a checkpoint directory ([`read_checkpoint`]); the
//! checkpoint/restore choreography lives in `mdrr-stream`, and
//! [`crate::salvage_checkpoint`] rebuilds manifests from surviving shard
//! files after out-of-band damage.

use crate::error::StoreError;
use crate::io::Storage;
use crate::snapshot::Snapshot;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// File name of the checkpoint manifest inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";

/// Version of the manifest JSON layout.
pub const MANIFEST_VERSION: u32 = 1;

/// The commit record of a checkpoint directory: which shard files form
/// the consistent set, how many reports they cover in total, and the
/// caller's opaque resume state.  Serialized as pretty JSON in
/// [`MANIFEST_FILE`]; written last, atomically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointManifest {
    /// Version of this manifest layout (currently 1).
    pub manifest_version: u32,
    /// Number of shards (equals `shard_files.len()`).
    pub n_shards: usize,
    /// Total reports across all shard snapshots at checkpoint time —
    /// restore verifies the shard files still sum to this, which catches
    /// out-of-band tampering with committed files.
    pub total_reports: u64,
    /// Shard snapshot file names relative to the checkpoint directory,
    /// in shard order.
    pub shard_files: Vec<String>,
    /// Opaque application resume state (e.g. `stream_sim`'s RNG
    /// position), or `None`.
    pub app_state: Option<String>,
}

impl CheckpointManifest {
    /// Serializes the manifest as the pretty JSON committed to
    /// [`MANIFEST_FILE`].
    ///
    /// # Errors
    /// Returns [`StoreError::InvalidHeader`] if serialization fails.
    pub fn to_json(&self) -> Result<String, StoreError> {
        serde_json::to_string_pretty(self)
            .map_err(|e| StoreError::header(format!("manifest does not serialize: {e}")))
    }

    /// Parses a manifest from its committed JSON.
    ///
    /// # Errors
    /// Returns [`StoreError::InvalidHeader`] for malformed JSON.
    pub fn from_json(json: &str) -> Result<Self, StoreError> {
        serde_json::from_str(json)
            .map_err(|e| StoreError::header(format!("malformed checkpoint manifest: {e}")))
    }
}

/// Reads the manifest of the checkpoint directory `dir` through
/// `storage` and checks its structure: the layout version, and a
/// non-empty shard file list whose length is `n_shards`.
///
/// # Errors
/// Returns [`StoreError::Io`] when the manifest cannot be read,
/// [`StoreError::InvalidHeader`] for malformed JSON or an unsupported
/// version, and [`StoreError::InvalidLayout`] for a shard count that
/// disagrees with the file list.
pub fn read_manifest(dir: &Path, storage: &Storage) -> Result<CheckpointManifest, StoreError> {
    let bytes = storage.read(&dir.join(MANIFEST_FILE))?;
    let json = String::from_utf8(bytes)
        .map_err(|_| StoreError::header("checkpoint manifest is not UTF-8"))?;
    let manifest = CheckpointManifest::from_json(&json)?;
    if manifest.manifest_version != MANIFEST_VERSION {
        return Err(StoreError::header(format!(
            "unsupported checkpoint manifest version {} (this reader implements {MANIFEST_VERSION})",
            manifest.manifest_version
        )));
    }
    if manifest.shard_files.is_empty() || manifest.shard_files.len() != manifest.n_shards {
        return Err(StoreError::layout(format!(
            "manifest declares {} shards but lists {} shard files",
            manifest.n_shards,
            manifest.shard_files.len()
        )));
    }
    Ok(manifest)
}

/// Reads a whole checkpoint directory through `storage`: the manifest
/// ([`read_manifest`]), then every shard snapshot it lists, in shard
/// order.  The shards must agree on schema, spec and channel layout, and
/// their report counts must sum to the manifest's committed total.
///
/// # Errors
/// The errors of [`read_manifest`] and [`Storage::read_snapshot`],
/// [`StoreError::SpecMismatch`] when shards disagree,
/// [`StoreError::CountOverflow`], and [`StoreError::InvalidLayout`]
/// ("torn checkpoint: …") when the shard totals miss the manifest's.
pub fn read_checkpoint(
    dir: &Path,
    storage: &Storage,
) -> Result<(CheckpointManifest, Vec<Snapshot>), StoreError> {
    let manifest = read_manifest(dir, storage)?;
    let snapshots = manifest
        .shard_files
        .iter()
        .map(|name| storage.read_snapshot(&dir.join(name)))
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(first) = snapshots.first() {
        for (snapshot, name) in snapshots.iter().zip(&manifest.shard_files).skip(1) {
            if snapshot.schema() != first.schema()
                || snapshot.spec() != first.spec()
                || snapshot.channel_sizes() != first.channel_sizes()
            {
                return Err(StoreError::spec_mismatch(format!(
                    "shard file {name} disagrees with shard 0 on spec, schema or channel layout"
                )));
            }
        }
    }
    let total = snapshots
        .iter()
        .try_fold(0u64, |acc, s| acc.checked_add(s.n_reports()))
        .ok_or(StoreError::CountOverflow { channel: None })?;
    if total != manifest.total_reports {
        return Err(StoreError::layout(format!(
            "torn checkpoint: shard files cover {total} reports but the manifest committed {}",
            manifest.total_reports
        )));
    }
    Ok((manifest, snapshots))
}

/// The snapshot file name of shard `shard` in checkpoint generation
/// `generation`.
///
/// ```
/// assert_eq!(
///     mdrr_store::shard_file_name(3, 7),
///     "shard-00003.g00000007.mdrrsnap"
/// );
/// ```
pub fn shard_file_name(shard: usize, generation: u64) -> String {
    format!("shard-{shard:05}.g{generation:08}.mdrrsnap")
}

/// Parses a shard snapshot file name into `(shard, generation)`.
/// Generation-suffixed names parse exactly; legacy un-suffixed names
/// (`shard-00003.mdrrsnap`, written before generations existed) parse as
/// generation 0.  Anything else — manifests, temp files, foreign files —
/// returns `None`.
///
/// ```
/// use mdrr_store::parse_shard_file_name;
/// assert_eq!(parse_shard_file_name("shard-00003.g00000007.mdrrsnap"), Some((3, 7)));
/// assert_eq!(parse_shard_file_name("shard-00012.mdrrsnap"), Some((12, 0)));
/// assert_eq!(parse_shard_file_name("MANIFEST.json"), None);
/// assert_eq!(parse_shard_file_name("shard-00003.g00000007.mdrrsnap.tmp"), None);
/// ```
pub fn parse_shard_file_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix("shard-")?;
    let (digits, rest) = rest.split_once('.')?;
    let shard: usize = digits.parse().ok()?;
    if !digits.chars().all(|c| c.is_ascii_digit()) {
        return None;
    }
    if rest == "mdrrsnap" {
        return Some((shard, 0));
    }
    let gen_digits = rest.strip_prefix('g')?.strip_suffix(".mdrrsnap")?;
    if !gen_digits.chars().all(|c| c.is_ascii_digit()) {
        return None;
    }
    let generation: u64 = gen_digits.parse().ok()?;
    Some((shard, generation))
}

/// The generation the next checkpoint of a directory should write: one
/// past the highest generation present among `names` (so 1 for an empty
/// or legacy directory — legacy files are generation 0).
///
/// ```
/// let names = ["shard-00000.g00000004.mdrrsnap", "MANIFEST.json"];
/// assert_eq!(
///     mdrr_store::next_generation(names.iter().map(|s| s.to_string())),
///     5
/// );
/// assert_eq!(mdrr_store::next_generation(std::iter::empty()), 1);
/// ```
pub fn next_generation(names: impl Iterator<Item = String>) -> u64 {
    names
        .filter_map(|name| parse_shard_file_name(&name).map(|(_, generation)| generation))
        .max()
        .map_or(1, |highest| highest.saturating_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrr_data::{Attribute, Schema};
    use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
    use std::fs;

    /// Writes shard `k` of generation 1 into `dir`.
    fn write_shard(dir: &Path, k: usize, keep: f64, counts: Vec<u64>) {
        let schema = Schema::new(vec![Attribute::indexed("A", 2).unwrap()]).unwrap();
        let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(keep));
        let n = counts.iter().sum();
        let snapshot = Snapshot::new(schema, spec, vec![counts], n).unwrap();
        let path = dir.join(shard_file_name(k, 1));
        Storage::os().write_snapshot(&path, &snapshot).unwrap();
    }

    fn edit_manifest(dir: &Path, edit: fn(&mut CheckpointManifest)) {
        let path = dir.join(MANIFEST_FILE);
        let mut manifest = read_manifest(dir, &Storage::os()).unwrap();
        edit(&mut manifest);
        fs::write(path, manifest.to_json().unwrap()).unwrap();
    }

    fn corrupt_shard_1(dir: &Path) {
        let path = dir.join(shard_file_name(1, 1));
        let mut bytes = fs::read(&path).unwrap();
        let last_count_byte = bytes.len() - 9;
        bytes[last_count_byte] ^= 0x01;
        fs::write(&path, bytes).unwrap();
    }

    #[test]
    fn read_checkpoint_accepts_exactly_the_consistent_directories() {
        // (damage done to a valid two-shard checkpoint, expected outcome
        // as a fragment of its Debug form)
        let cases = [
            ("none", "Ok((CheckpointManifest"),
            ("missing manifest", "Err(Io"),
            ("malformed JSON", "InvalidHeader"),
            ("version 2", "InvalidHeader"),
            ("n_shards mismatch", "InvalidLayout"),
            ("empty file list", "InvalidLayout"),
            ("CRC-corrupt shard", "ChecksumMismatch"),
            ("mixed specs", "SpecMismatch"),
            ("torn total", "torn checkpoint"),
        ];
        for (case, (damage, expected)) in cases.into_iter().enumerate() {
            let dir = std::env::temp_dir().join(format!("mdrr-ckpt-{case}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            write_shard(&dir, 0, 0.7, vec![3, 1]);
            write_shard(&dir, 1, 0.7, vec![1, 2]);
            let manifest = CheckpointManifest {
                manifest_version: MANIFEST_VERSION,
                n_shards: 2,
                total_reports: 7,
                shard_files: vec![shard_file_name(0, 1), shard_file_name(1, 1)],
                app_state: None,
            };
            fs::write(dir.join(MANIFEST_FILE), manifest.to_json().unwrap()).unwrap();
            match damage {
                "none" => {}
                "missing manifest" => fs::remove_file(dir.join(MANIFEST_FILE)).unwrap(),
                "malformed JSON" => fs::write(dir.join(MANIFEST_FILE), "{").unwrap(),
                "version 2" => edit_manifest(&dir, |m| m.manifest_version = 2),
                "n_shards mismatch" => edit_manifest(&dir, |m| m.n_shards = 3),
                "empty file list" => edit_manifest(&dir, |m| m.shard_files.clear()),
                "CRC-corrupt shard" => corrupt_shard_1(&dir),
                "mixed specs" => write_shard(&dir, 1, 0.5, vec![1, 2]),
                _ => edit_manifest(&dir, |m| m.total_reports = 8),
            }
            let outcome = format!("{:?}", read_checkpoint(&dir, &Storage::os()));
            assert!(outcome.contains(expected), "{damage}: {outcome}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn manifest_json_round_trips() {
        let manifest = CheckpointManifest {
            manifest_version: MANIFEST_VERSION,
            n_shards: 2,
            total_reports: 77,
            shard_files: vec![shard_file_name(0, 3), shard_file_name(1, 3)],
            app_state: Some("rng@77".to_string()),
        };
        let json = manifest.to_json().unwrap();
        assert_eq!(CheckpointManifest::from_json(&json).unwrap(), manifest);
        assert!(matches!(
            CheckpointManifest::from_json("{not json"),
            Err(StoreError::InvalidHeader { .. })
        ));
    }

    #[test]
    fn file_name_grammar_round_trips_and_rejects_foreigners() {
        for (shard, generation) in [(0usize, 1u64), (7, 0), (99_999, 99_999_999)] {
            let name = shard_file_name(shard, generation);
            assert_eq!(parse_shard_file_name(&name), Some((shard, generation)));
        }
        for foreign in [
            "MANIFEST.json",
            "shard-00000.mdrrsnap.tmp",
            "shard-abcde.mdrrsnap",
            "shard-00000.gxxxxxxx.mdrrsnap",
            "shard-00000.g0000001.other",
            "shardy-00000.mdrrsnap",
            "notes.txt",
        ] {
            assert_eq!(parse_shard_file_name(foreign), None, "{foreign}");
        }
        // Legacy names are generation 0.
        assert_eq!(parse_shard_file_name("shard-00004.mdrrsnap"), Some((4, 0)));
    }

    #[test]
    fn next_generation_scans_past_the_highest() {
        let names = vec![
            "shard-00000.g00000002.mdrrsnap".to_string(),
            "shard-00001.g00000003.mdrrsnap".to_string(), // torn newer gen
            "shard-00000.mdrrsnap".to_string(),           // legacy, gen 0
            "MANIFEST.json".to_string(),
            "debris.tmp".to_string(),
        ];
        assert_eq!(next_generation(names.into_iter()), 4);
        // A legacy-only directory starts generations at 1.
        assert_eq!(
            next_generation(std::iter::once("shard-00000.mdrrsnap".to_string())),
            1
        );
    }
}
