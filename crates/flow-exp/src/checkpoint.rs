//! On-disk checkpoint storage for long experiment runs.
//!
//! Each checkpoint is one [`flow_core::persist`] record holding a
//! [`flow_mcmc::FlowCheckpoint`]'s text: written to a temp file and
//! renamed into place, so a process crash mid-write never leaves a
//! truncated checkpoint behind (the file is not fsynced, so an OS crash
//! still can), and checksummed, so bit rot is a typed error on resume
//! instead of a silently different chain state.

use flow_core::schema::EXP_CHECKPOINT;
use flow_core::{persist, FlowError, FlowResult};
use flow_mcmc::FlowCheckpoint;
use std::path::{Path, PathBuf};

/// A directory of named checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    pub fn open(dir: impl AsRef<Path>) -> FlowResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.ckpt"))
    }

    /// Atomically writes a checkpoint under `name` (replacing any
    /// previous one).
    pub fn save(&self, name: &str, ckpt: &FlowCheckpoint) -> FlowResult<()> {
        persist::write(&self.path(name), EXP_CHECKPOINT, &[ckpt.to_text()])
    }

    /// Loads the checkpoint saved under `name`, or `None` if there is
    /// no such file. A present-but-damaged or unparsable file is a
    /// typed [`FlowError::Checkpoint`] error, not a silent restart.
    pub fn load(&self, name: &str) -> FlowResult<Option<FlowCheckpoint>> {
        let path = self.path(name);
        let Some(text) = persist::read_one(&path, EXP_CHECKPOINT)? else {
            return Ok(None);
        };
        FlowCheckpoint::from_text(&text)
            .map(Some)
            .map_err(|e| match e {
                FlowError::Checkpoint { detail } => FlowError::Checkpoint {
                    detail: format!("{}: {detail}", path.display()),
                },
                other => other,
            })
    }

    /// Removes the checkpoint under `name` (a completed run's
    /// checkpoint is stale: resuming from it would repeat the tail).
    pub fn remove(&self, name: &str) -> FlowResult<()> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_mcmc::{ChainCheckpoint, ProposalKind};

    fn sample_ckpt() -> FlowCheckpoint {
        FlowCheckpoint {
            chain: ChainCheckpoint {
                edge_count: 4,
                active_edges: vec![0, 2],
                proposal: ProposalKind::ResultingActivity,
                steps: 42,
                accepted: 17,
                rng_state: [1, 2, 3, 4],
            },
            source: 0,
            sink: 3,
            samples_done: 2,
            every: 2,
            series: vec![1, 0],
        }
    }

    #[test]
    fn save_load_remove_roundtrip() {
        let dir = std::env::temp_dir().join("flowexp-ckpt-test-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.load("run").unwrap(), None);
        let ckpt = sample_ckpt();
        store.save("run", &ckpt).unwrap();
        assert_eq!(store.load("run").unwrap(), Some(ckpt));
        store.remove("run").unwrap();
        assert_eq!(store.load("run").unwrap(), None);
        store.remove("run").unwrap(); // idempotent
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_rot_in_a_saved_checkpoint_is_a_typed_error() {
        let dir = std::env::temp_dir().join("flowexp-ckpt-test-bitrot");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        store.save("run", &sample_ckpt()).unwrap();
        // One digit of the RNG state flips: still a well-formed
        // checkpoint, but not the chain that was saved.
        let path = dir.join("run.ckpt");
        let text = std::fs::read_to_string(&path).unwrap();
        let rotted = text.replacen("rng=1,", "rng=3,", 1);
        assert_ne!(text, rotted);
        std::fs::write(&path, rotted).unwrap();
        let err = store.load("run").unwrap_err();
        assert!(matches!(err, FlowError::Checkpoint { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_is_a_typed_error() {
        let dir = std::env::temp_dir().join("flowexp-ckpt-test-corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        std::fs::write(dir.join("bad.ckpt"), "not a checkpoint").unwrap();
        assert!(matches!(
            store.load("bad"),
            Err(FlowError::Checkpoint { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
