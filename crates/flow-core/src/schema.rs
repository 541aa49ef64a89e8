//! The single registry of persisted-format schema identifiers.
//!
//! Every versioned text/JSON artifact the workspace writes — the serve
//! cache, stream snapshots, stats snapshots, bench result files, the
//! perf baseline and trajectory lines — declares its schema here as a
//! [`SchemaId`] constant. Hoisting the identifiers into one module
//! keeps writer and reader in lockstep by construction: bumping a
//! version is a one-line change, and the flow-analyze `L10` lint fails
//! the ratchet when a bare schema string literal appears anywhere else.
//!
//! Two rendering conventions predate this module and both survive:
//!
//! * **line headers** (`"flowserve-cache v4"`) — the first line of a
//!   text artifact, rendered by [`SchemaId::line_header`] and checked
//!   by [`parse_header`];
//! * **tags** (`"flow-obs/stats-v1"`) — the `"schema"` field of a JSON
//!   document, rendered by [`SchemaId::tag`].

/// A named, versioned persisted-format identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchemaId {
    /// Format family name, e.g. `"flowserve-cache"`.
    pub name: &'static str,
    /// Format version, bumped on any incompatible layout change.
    pub version: u32,
}

impl SchemaId {
    /// Declares a schema identifier.
    pub const fn new(name: &'static str, version: u32) -> Self {
        SchemaId { name, version }
    }

    /// The first-line header form: `"<name> v<version>"`.
    pub fn line_header(&self) -> String {
        format!("{} v{}", self.name, self.version)
    }

    /// The JSON `"schema"` tag form: `"<name>-v<version>"`.
    pub fn tag(&self) -> String {
        format!("{}-v{}", self.name, self.version)
    }

    /// True when `line` is exactly this schema's line header.
    pub fn matches_line(&self, line: &str) -> bool {
        parse_header(line)
            .is_some_and(|(name, version)| name == self.name && version == self.version)
    }
}

/// Splits a `"<name> v<version>"` header line into its parts. Returns
/// `None` when the line does not follow the convention.
pub fn parse_header(line: &str) -> Option<(&str, u32)> {
    let (name, v) = line.trim_end().rsplit_once(' ')?;
    let version = v.strip_prefix('v')?.parse().ok()?;
    if name.is_empty() || name.contains(' ') {
        return None;
    }
    Some((name, version))
}

/// The flow-serve on-disk chain-statistics cache (`cache.flowserve`).
/// v3 added the shard field to the persisted query-key text form; v4
/// moved the file onto [`crate::persist`] records.
pub const SERVE_CACHE: SchemaId = SchemaId::new("flowserve-cache", 4);

/// The flow-stream epoch snapshot files (`epoch-*.snap`). v2 moved the
/// file onto one [`crate::persist`] record and dropped the advisory
/// `fingerprint=` line; v3 added the ingest mark (`line=`,
/// `watermark=`) to the `model` line.
pub const STREAM_SNAPSHOT: SchemaId = SchemaId::new("flowstream-snapshot", 3);

/// The flow-stream epoch logs (`epoch-*.log`): one appended
/// [`crate::persist`] record per epoch sealed after the snapshot of the
/// same number.
pub const STREAM_LOG: SchemaId = SchemaId::new("flowstream-log", 1);

/// flow-exp's resumable experiment checkpoints (`<name>.ckpt`): one
/// [`crate::persist`] record holding a `FlowCheckpoint`'s text.
pub const EXP_CHECKPOINT: SchemaId = SchemaId::new("flowexp-checkpoint", 1);

/// The flow-obs stats-aggregator snapshot (`repro serve --stats-out`).
pub const OBS_STATS: SchemaId = SchemaId::new("flow-obs/stats", 1);

/// The committed perf baseline (`perf-baseline.json`).
pub const PERF_BASELINE: SchemaId = SchemaId::new("flow-perf/baseline", 1);

/// One normalized perf run appended to `BENCH_trajectory.jsonl`.
pub const PERF_RUN: SchemaId = SchemaId::new("flow-perf/run", 1);

/// `bench_serve`'s result file (`BENCH_serve.json`). v3 added the
/// sharded section; v4 serves it conditioned (MH) queries.
pub const BENCH_SERVE: SchemaId = SchemaId::new("flow-bench/serve", 4);

/// `bench_sampler`'s result file (`BENCH_sampler.json`). v3 added the
/// §IV-C section; v4 its exact-kernel sweep.
pub const BENCH_SAMPLER: SchemaId = SchemaId::new("flow-bench/sampler", 4);

/// `bench_stream`'s result file (`BENCH_stream.json`).
pub const BENCH_STREAM: SchemaId = SchemaId::new("flow-bench/stream", 1);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_header_round_trips() {
        let h = SERVE_CACHE.line_header();
        assert_eq!(h, "flowserve-cache v4");
        assert_eq!(parse_header(&h), Some(("flowserve-cache", 4)));
        assert!(SERVE_CACHE.matches_line(&h));
        assert!(!STREAM_SNAPSHOT.matches_line(&h));
    }

    #[test]
    fn parse_header_rejects_malformed_lines() {
        assert_eq!(parse_header("no version here"), None);
        assert_eq!(parse_header("name v"), None);
        assert_eq!(parse_header("name vx1"), None);
        assert_eq!(parse_header(" v1"), None);
        assert_eq!(parse_header("name v1 extra v2"), None);
    }

    #[test]
    fn versions_match_their_documented_tags() {
        // The L10 lint exempts only this module; these assertions keep
        // the constant table honest against accidental renames.
        assert_eq!(STREAM_SNAPSHOT.line_header(), "flowstream-snapshot v3");
        assert_eq!(STREAM_LOG.line_header(), "flowstream-log v1");
        assert_eq!(EXP_CHECKPOINT.line_header(), "flowexp-checkpoint v1");
        assert_eq!(OBS_STATS.tag(), "flow-obs/stats-v1");
        assert_eq!(PERF_BASELINE.tag(), "flow-perf/baseline-v1");
        assert_eq!(PERF_RUN.tag(), "flow-perf/run-v1");
        assert_eq!(BENCH_SERVE.tag(), "flow-bench/serve-v4");
        assert_eq!(BENCH_SAMPLER.tag(), "flow-bench/sampler-v4");
        assert_eq!(BENCH_STREAM.tag(), "flow-bench/stream-v1");
    }
}
