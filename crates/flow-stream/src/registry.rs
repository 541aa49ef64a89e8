//! Versioned model registry: atomic epoch snapshots and hot-swap into
//! the serving layer.
//!
//! **Snapshots.** Each sealed epoch persists the full learning state
//! as `epoch-NNNNNN.snap`: one checksummed [`flow_core::persist`]
//! record, written to a temporary file and renamed into place, so a
//! process crash mid-write never leaves a half snapshot (the file is
//! not fsynced, so an OS crash still can). A torn or bit-rotted file
//! fails its checksum and [`SnapshotStore::load_latest`] falls back to
//! the newest intact epoch. The store keeps the two newest epochs and
//! deletes older ones as it writes, so it stays bounded however long
//! the stream runs. The `persist.torn_write` fault point tears a
//! snapshot mid-file to drill the fallback.
//!
//! **Hot-swap.** [`ModelRegistry::swap_into`] installs the current
//! served model into a [`ServeEngine`]: cache entries keyed under
//! older fingerprints are invalidated eagerly, and because the engine
//! takes the model per batch, in-flight batches finish on the model
//! version they started with.
//!
//! The snapshot record is line-oriented text (like the checkpoint and
//! perf-baseline files elsewhere in the workspace):
//!
//! ```text
//! model epoch=2 timing=any_earlier nodes=4 edges=4
//! e 0 1 3ff0000000000000 4000000000000000
//! s sink=3 parents=1,2 spont=0 uninf=1 rows=1
//! r ones=0 count=3 leaks=1
//! ```
//!
//! One `e` line per edge carries its endpoints and the bits of its Beta
//! posterior's α and β; one `s` line per sink with in-edges opens its
//! characteristic table of `r` rows.

use crate::delta::EpochDelta;
use crate::model::StreamModel;
use flow_core::schema::STREAM_SNAPSHOT;
use flow_core::{persist, FlowError, FlowResult};
use flow_graph::{graph::GraphBuilder, NodeId};
use flow_icm::BetaIcm;
use flow_learn::summary::{SinkSummary, SummaryRow, TimingAssumption};
use flow_serve::ServeEngine;
use flow_stats::dist::Beta;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::str::SplitWhitespace;

/// On-disk store of sealed-epoch snapshots.
#[derive(Clone, Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

fn corrupt(detail: impl Into<String>) -> FlowError {
    FlowError::Checkpoint {
        detail: detail.into(),
    }
}

fn timing_name(t: TimingAssumption) -> &'static str {
    match t {
        TimingAssumption::AnyEarlier => "any_earlier",
        TimingAssumption::PreviousStep => "previous_step",
    }
}

fn timing_of(name: &str) -> FlowResult<TimingAssumption> {
    match name {
        "any_earlier" => Ok(TimingAssumption::AnyEarlier),
        "previous_step" => Ok(TimingAssumption::PreviousStep),
        other => Err(corrupt(format!("unknown timing assumption `{other}`"))),
    }
}

/// Renders the snapshot record.
fn render(model: &StreamModel) -> String {
    let graph = model.graph();
    let mut out = format!(
        "model epoch={} timing={} nodes={} edges={}\n",
        model.epoch(),
        timing_name(model.timing()),
        graph.node_count(),
        graph.edge_count()
    );
    for (e, b) in graph.edges().zip(model.beta().params()) {
        let (u, v) = graph.endpoints(e);
        let (alpha, beta) = (b.alpha().to_bits(), b.beta().to_bits());
        let _ = writeln!(out, "e {} {} {alpha:016x} {beta:016x}", u.0, v.0);
    }
    for s in model.summaries() {
        let _ = writeln!(
            out,
            "s sink={} parents={} spont={} uninf={} rows={}",
            s.sink.0,
            id_list(s.parents.iter().map(|p| p.index())),
            s.skipped_spontaneous,
            s.skipped_uninformative,
            s.rows.len()
        );
        for row in &s.rows {
            let ones = id_list(row.characteristic.iter_ones());
            let _ = writeln!(out, "r ones={ones} count={} leaks={}", row.count, row.leaks);
        }
    }
    out
}

/// A comma-separated id list.
fn id_list(ids: impl Iterator<Item = usize>) -> String {
    ids.map(|i| i.to_string()).collect::<Vec<_>>().join(",")
}

/// The tokens after the tag of `line`, which must start with `tag`.
fn tagged<'a>(line: Option<&'a str>, tag: &str) -> FlowResult<SplitWhitespace<'a>> {
    let line = line.unwrap_or("");
    let mut toks = line.split_whitespace();
    match toks.next() {
        Some(t) if t == tag => Ok(toks),
        _ => Err(corrupt(format!("expected a `{tag}` line, found `{line}`"))),
    }
}

/// The value of the next token, which must be `key=<value>`.
fn kv<'a>(toks: &mut SplitWhitespace<'a>, key: &str) -> FlowResult<&'a str> {
    let token = toks.next().unwrap_or("");
    token
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| corrupt(format!("expected `{key}=…`, found `{token}`")))
}

fn parse_u64(s: &str, what: &str) -> FlowResult<u64> {
    s.parse::<u64>()
        .map_err(|_| corrupt(format!("bad {what} `{s}`")))
}

/// The next token as a `key=<u64>` value.
fn num(toks: &mut SplitWhitespace<'_>, key: &str) -> FlowResult<u64> {
    parse_u64(kv(toks, key)?, key)
}

fn parse_bits(s: &str, what: &str) -> FlowResult<f64> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| corrupt(format!("bad {what} bits `{s}`")))
}

/// Parses a comma-separated id list; empty string = empty list.
fn parse_ids(s: &str, what: &str) -> FlowResult<Vec<u64>> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',').map(|tok| parse_u64(tok, what)).collect()
}

/// Parses one `r` line of a sink with `width` parents.
fn parse_row(line: Option<&str>, width: usize) -> FlowResult<SummaryRow> {
    let mut toks = tagged(line, "r")?;
    let ones = parse_ids(kv(&mut toks, "ones")?, "characteristic bit")?;
    let count = num(&mut toks, "count")?;
    let leaks = num(&mut toks, "leaks")?;
    if leaks > count {
        return Err(corrupt(format!("row has leaks {leaks} > count {count}")));
    }
    let mut characteristic = flow_graph::BitSet::new(width);
    for bit in ones.into_iter().map(|one| one as usize) {
        if bit >= width {
            return Err(corrupt(format!(
                "characteristic bit {bit} out of range for {width} parents"
            )));
        }
        characteristic.set(bit, true);
    }
    Ok(SummaryRow {
        characteristic,
        count,
        leaks,
    })
}

/// Parses an intact snapshot record back into a model.
fn parse_snapshot(record: &str) -> FlowResult<StreamModel> {
    let mut lines = record.lines();
    let mut head = tagged(lines.next(), "model")?;
    let epoch = num(&mut head, "epoch")?;
    let timing = timing_of(kv(&mut head, "timing")?)?;
    let mut builder = GraphBuilder::new(num(&mut head, "nodes")? as usize);
    let edge_count = num(&mut head, "edges")? as usize;
    // The checksum guards integrity, not validity: a hand-edited file
    // with a recomputed checksum can still name impossible edges or
    // Betas, so both are built fallibly — never through the panicking
    // fixture constructors.
    let mut params = Vec::new();
    for _ in 0..edge_count {
        let toks: Vec<&str> = tagged(lines.next(), "e")?.collect();
        let [u, v, alpha, beta] = toks[..] else {
            return Err(corrupt(format!(
                "edge line has {} fields, not 4",
                toks.len()
            )));
        };
        let u = parse_u64(u, "edge src")? as u32;
        let v = parse_u64(v, "edge dst")? as u32;
        builder
            .add_edge(NodeId(u), NodeId(v))
            .map_err(|e| corrupt(format!("invalid stored edge ({u},{v}): {e}")))?;
        let b = Beta::try_new(parse_bits(alpha, "alpha")?, parse_bits(beta, "beta")?);
        params.push(b.map_err(|e| corrupt(format!("invalid stored Beta: {e}")))?);
    }
    let beta = BetaIcm::new(builder.build(), params);

    let mut summaries = Vec::new();
    while let Some(line) = lines.next() {
        let mut toks = tagged(Some(line), "s")?;
        let sink = NodeId(num(&mut toks, "sink")? as u32);
        let parents: Vec<NodeId> = parse_ids(kv(&mut toks, "parents")?, "parent")?
            .into_iter()
            .map(|p| NodeId(p as u32))
            .collect();
        let spont = num(&mut toks, "spont")?;
        let uninf = num(&mut toks, "uninf")?;
        let rows = (0..num(&mut toks, "rows")?)
            .map(|_| parse_row(lines.next(), parents.len()))
            .collect::<FlowResult<Vec<_>>>()?;
        let mut summary = SinkSummary::from_rows(sink, parents, rows);
        summary.skipped_spontaneous = spont;
        summary.skipped_uninformative = uninf;
        summaries.push(summary);
    }
    Ok(StreamModel::from_parts(beta, summaries, timing, epoch))
}

impl SnapshotStore {
    /// A store rooted at `dir` (created on first persist).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SnapshotStore { dir: dir.into() }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn snapshot_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("epoch-{epoch:06}.snap"))
    }

    /// The store's snapshot files by epoch, oldest first (none when the
    /// directory does not exist yet).
    fn epochs(&self) -> FlowResult<Vec<(u64, PathBuf)>> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut epochs: Vec<(u64, PathBuf)> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name();
                let epoch = name
                    .to_str()?
                    .strip_prefix("epoch-")?
                    .strip_suffix(".snap")?;
                Some((epoch.parse().ok()?, e.path()))
            })
            .collect();
        epochs.sort();
        Ok(epochs)
    }

    /// Persists `model` as its epoch's snapshot, then deletes every
    /// snapshot older than the epoch before it, so the store holds the
    /// two newest epochs.
    pub fn persist(&self, model: &StreamModel) -> FlowResult<PathBuf> {
        let path = self.snapshot_path(model.epoch());
        persist::write(&path, STREAM_SNAPSHOT, &[render(model)])?;
        for (epoch, old) in self.epochs()? {
            if epoch < model.epoch().saturating_sub(1) {
                std::fs::remove_file(old)?;
            }
        }
        Ok(path)
    }

    /// Loads and checksum-verifies one snapshot file.
    pub fn load(&self, path: &Path) -> FlowResult<StreamModel> {
        let record = persist::read_one(path, STREAM_SNAPSHOT)?.ok_or_else(|| FlowError::Io {
            detail: format!("no snapshot at {}", path.display()),
        })?;
        parse_snapshot(&record)
    }

    /// Loads the newest epoch that passes its checksum, skipping
    /// corrupt or torn snapshots. Returns `None` on an empty store.
    pub fn load_latest(&self) -> FlowResult<Option<(PathBuf, StreamModel)>> {
        for (_, path) in self.epochs()?.into_iter().rev() {
            match self.load(&path) {
                Ok(model) => return Ok(Some((path, model))),
                Err(_) => flow_obs::counter("stream.snapshot_skipped", 1),
            }
        }
        Ok(None)
    }
}

/// What one hot-swap did.
#[derive(Clone, Debug)]
pub struct SwapReport {
    /// Epoch of the installed model.
    pub epoch: u64,
    /// Serve fingerprint now embedded in cache keys.
    pub fingerprint: u64,
    /// Cache entries reclaimed because they referenced older models.
    pub invalidated: usize,
}

/// What sealing one epoch did.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// Epoch number after the delta was applied.
    pub epoch: u64,
    /// Serve fingerprint of the updated model.
    pub fingerprint: u64,
    /// Where the snapshot landed (`None` when running store-less).
    pub snapshot: Option<PathBuf>,
}

/// The live model plus its optional snapshot store.
#[derive(Debug)]
pub struct ModelRegistry {
    model: StreamModel,
    store: Option<SnapshotStore>,
}

impl ModelRegistry {
    /// A registry serving `model`, persisting epochs into `store` when
    /// one is given.
    pub fn new(model: StreamModel, store: Option<SnapshotStore>) -> Self {
        ModelRegistry { model, store }
    }

    /// Resumes from the newest intact snapshot in `store`, or starts
    /// `fresh()` when the store is empty.
    pub fn recover(store: SnapshotStore, fresh: impl FnOnce() -> StreamModel) -> FlowResult<Self> {
        let model = match store.load_latest()? {
            Some((_, model)) => model,
            None => fresh(),
        };
        Ok(ModelRegistry {
            model,
            store: Some(store),
        })
    }

    /// The live model.
    pub fn model(&self) -> &StreamModel {
        &self.model
    }

    /// Applies one epoch's delta and persists the resulting snapshot.
    pub fn seal_epoch(&mut self, delta: &EpochDelta) -> FlowResult<EpochReport> {
        self.model.apply(delta)?;
        let snapshot = match &self.store {
            Some(store) => Some(store.persist(&self.model)?),
            None => None,
        };
        Ok(EpochReport {
            epoch: self.model.epoch(),
            fingerprint: self.model.serve_fingerprint(),
            snapshot,
        })
    }

    /// Hot-swaps the current model version into a serving engine:
    /// installs the model's kept served `Icm`, eagerly reclaims cache
    /// entries keyed under older models, and — on a sharded engine —
    /// rebuilds only the shards whose sub-model actually changed,
    /// keeping the warm caches of untouched shards. In-flight batches
    /// are untouched — the engine takes its model per batch, so work
    /// that started on an older version completes on it.
    pub fn swap_into(&self, engine: &mut ServeEngine) -> SwapReport {
        let fingerprint = self.model.serve_fingerprint();
        let invalidated = engine.install_model_icm(self.model.served());
        flow_obs::counter("stream.swaps", 1);
        flow_obs::event(|| {
            flow_obs::Event::new("stream.swap")
                .u64("epoch", self.model.epoch())
                .u64("fingerprint", fingerprint)
                .u64("invalidated", invalidated as u64)
        });
        SwapReport {
            epoch: self.model.epoch(),
            fingerprint,
            invalidated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{IngestConfig, Ingestor};
    use flow_graph::graph::graph_from_edges;
    use flow_learn::summary::TimingAssumption;

    fn diamond() -> flow_graph::DiGraph {
        graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    fn trained_model() -> StreamModel {
        let mut ing = Ingestor::with_graph(diamond(), IngestConfig::default());
        let lines = [
            r#"{"cascade": 1, "node": 0, "t": 0}"#,
            r#"{"cascade": 1, "node": 1, "t": 1, "parent": 0}"#,
            r#"{"cascade": 2, "node": 1, "t": 0}"#,
            r#"{"cascade": 2, "node": 3, "t": 2}"#,
        ];
        for (i, line) in lines.iter().enumerate() {
            ing.push_line(i + 1, line).unwrap();
        }
        let mut model = StreamModel::new(diamond(), TimingAssumption::AnyEarlier);
        model.apply(&ing.seal_epoch()).unwrap();
        model
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("flow-stream-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn snapshot_roundtrip_preserves_every_bit() {
        let dir = tmp_dir("roundtrip");
        let store = SnapshotStore::new(&dir);
        let model = trained_model();
        let path = store.persist(&model).unwrap();
        let loaded = store.load(&path).unwrap();
        assert_eq!(loaded.epoch(), model.epoch());
        assert_eq!(loaded.state_fingerprint(), model.state_fingerprint());
        assert_eq!(loaded.serve_fingerprint(), model.serve_fingerprint());
        // Persisting the loaded model reproduces the file byte-for-byte.
        let dir2 = tmp_dir("roundtrip2");
        let path2 = SnapshotStore::new(&dir2).persist(&loaded).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&path2).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn corrupt_snapshot_fails_checksum_and_latest_falls_back() {
        let dir = tmp_dir("fallback");
        let store = SnapshotStore::new(&dir);
        let mut model = trained_model();
        let good = store.persist(&model).unwrap();
        model.apply(&EpochDelta::default()).unwrap();
        let newer = store.persist(&model).unwrap();
        assert_ne!(good, newer);
        // Flip a byte in the newer snapshot's body.
        let mut bytes = std::fs::read(&newer).unwrap();
        bytes[40] ^= 0x20;
        std::fs::write(&newer, &bytes).unwrap();
        let err = store.load(&newer).unwrap_err();
        assert!(matches!(err, FlowError::Checkpoint { .. }), "{err}");
        let (latest_path, latest) = store.load_latest().unwrap().unwrap();
        assert_eq!(latest_path, good);
        assert_eq!(latest.epoch(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_keeps_the_two_newest_epochs() {
        let dir = tmp_dir("bounded");
        let store = SnapshotStore::new(&dir);
        let mut model = trained_model();
        let mut last = Vec::new();
        for _ in 0..5 {
            last.push(store.persist(&model).unwrap());
            model.apply(&EpochDelta::default()).unwrap();
        }
        let epochs: Vec<u64> = store
            .epochs()
            .unwrap()
            .into_iter()
            .map(|(e, _)| e)
            .collect();
        assert_eq!(epochs, [4, 5]);
        // Tear epoch 5: recovery still lands on epoch 4.
        let newest = &last[4];
        let text = std::fs::read(newest).unwrap();
        std::fs::write(newest, &text[..text.len() / 2]).unwrap();
        let (path, latest) = store.load_latest().unwrap().unwrap();
        assert_eq!(path, last[3]);
        assert_eq!(latest.epoch(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_prefers_snapshot_over_fresh() {
        let dir = tmp_dir("recover");
        let store = SnapshotStore::new(&dir);
        let model = trained_model();
        store.persist(&model).unwrap();
        let reg = ModelRegistry::recover(SnapshotStore::new(&dir), || {
            StreamModel::new(diamond(), TimingAssumption::AnyEarlier)
        })
        .unwrap();
        assert_eq!(reg.model().epoch(), 1);
        assert_eq!(reg.model().state_fingerprint(), model.state_fingerprint());
        // Empty store → fresh model.
        let empty = tmp_dir("recover-empty");
        let reg = ModelRegistry::recover(SnapshotStore::new(&empty), || {
            StreamModel::new(diamond(), TimingAssumption::AnyEarlier)
        })
        .unwrap();
        assert_eq!(reg.model().epoch(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
