//! Versioned model registry: durable epochs and hot-swap into the
//! serving layer.
//!
//! **Durable epochs.** The learners keep additive sufficient
//! statistics, so a sealed epoch is fully described by its
//! [`EpochDelta`]. [`ModelRegistry::seal_epoch`] therefore makes an
//! epoch durable by appending one [`flow_core::persist`] record to the
//! store's log, `epoch-NNNNNN.log`, and syncing it before it returns.
//! The record holds the epoch's number and its delta, ingest mark
//! included. Only the first seal through a store, and every seal that
//! would grow the log past the size of its snapshot, writes a full
//! snapshot instead: `epoch-NNNNNN.snap`, one record synced to a
//! temporary file, renamed into place, and its directory synced. Each
//! snapshot starts a new log of the same number, so a log never holds
//! more bytes than its snapshot, and the store deletes everything older
//! than its two newest snapshots, so it stays bounded however long the
//! stream runs.
//!
//! **Recovery.** [`SnapshotStore::load_latest`] loads the newest
//! snapshot that passes its checksum and folds its log's records into
//! the snapshot's statistics in epoch order, as
//! [`StreamModel::apply_all`] folds epochs into a live model, building
//! the served model once at the end. Incremental application is
//! bit-identical to batch training, so the replayed model is the sealed
//! one bit for bit. Replay stops at the first damaged or missing
//! record: a crash mid-append tears at most the newest record, and
//! [`flow_core::persist::read`] keeps the intact ones before it. A torn
//! or bit-rotted snapshot falls back to the one before it and its log.
//! The `persist.torn_write` and `persist.torn_append` fault points
//! drill both paths.
//!
//! **Hot-swap.** [`ModelRegistry::swap_into`] installs the current
//! served model into a [`ServeEngine`]: cache entries keyed under
//! older fingerprints are invalidated eagerly, and because the engine
//! takes the model per batch, in-flight batches finish on the model
//! version they started with.
//!
//! Both records are line-oriented text (like the checkpoint and
//! perf-baseline files elsewhere in the workspace). A snapshot:
//!
//! ```text
//! model epoch=2 line=31 watermark=7 timing=any_earlier nodes=4 edges=4
//! e 0 1 1.0 2.0
//! s sink=3 parents=1,2 spont=0 uninf=1 rows=1
//! r ones=0 count=3 leaks=1
//! ```
//!
//! One `e` line per edge carries its endpoints and its Beta posterior's
//! α and β, each the shortest decimal that reads back to the same bits
//! (counts plus a prior, so usually a few digits); one `s` line per sink
//! with in-edges opens its characteristic table of `r` rows. A log
//! record:
//!
//! ```text
//! epoch 3 line=40 watermark=9 events=5
//! a sources=0 nodes=0,1,3 edges=0,2
//! u 1@0 3@2
//! ```
//!
//! One `a` line per attributed cascade lists its sources and its active
//! nodes and edges; one `u` line per episode lists `node@time` pairs.
//! `watermark=none` marks a stream that has sealed no cascade yet.

use crate::delta::{EpochDelta, IngestMark};
use crate::model::StreamModel;
use flow_core::schema::{STREAM_LOG, STREAM_SNAPSHOT};
use flow_core::{persist, FlowError, FlowResult};
use flow_graph::{graph::GraphBuilder, BitSet, DiGraph, NodeId};
use flow_icm::{AttributedRecord, BetaIcm};
use flow_learn::summary::{Episode, SinkSummary, SinkTables, SummaryRow, TimingAssumption};
use flow_serve::ServeEngine;
use flow_stats::dist::Beta;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::str::SplitWhitespace;

/// On-disk store of sealed epochs: synced snapshots, each followed by a
/// log of the epochs sealed since.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    /// The log the next seal appends to and the size it may grow to,
    /// its snapshot's; `None` until this handle writes a snapshot, so
    /// the first seal through a store always writes one.
    log: Option<(PathBuf, u64)>,
}

/// Where a recovered model came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recovered {
    /// The snapshot recovery started from.
    pub snapshot: PathBuf,
    /// How many log records it replayed onto the snapshot.
    pub replayed: usize,
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

/// `line=<n> watermark=<id|none>`.
fn mark_fields(mark: IngestMark) -> String {
    match mark.watermark {
        Some(w) => format!("line={} watermark={w}", mark.line),
        None => format!("line={} watermark=none", mark.line),
    }
}

/// Parses the `line=` and `watermark=` fields of [`mark_fields`].
fn parse_mark(toks: &mut SplitWhitespace<'_>) -> FlowResult<IngestMark> {
    let line = num(toks, "line")? as usize;
    let watermark = match kv(toks, "watermark")? {
        "none" => None,
        w => Some(parse_u64(w, "watermark")?),
    };
    Ok(IngestMark { line, watermark })
}

/// Renders the snapshot record.
fn render(model: &StreamModel) -> String {
    let graph = model.graph();
    let mut out = format!(
        "model epoch={} {} timing={} nodes={} edges={}\n",
        model.epoch(),
        mark_fields(model.mark()),
        timing_name(model.timing()),
        graph.node_count(),
        graph.edge_count()
    );
    for (e, b) in graph.edges().zip(model.beta().params()) {
        let (u, v) = graph.endpoints(e);
        let _ = writeln!(out, "e {} {} {:?} {:?}", u.0, v.0, b.alpha(), b.beta());
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

fn parse_f64(s: &str, what: &str) -> FlowResult<f64> {
    s.parse::<f64>()
        .map_err(|_| corrupt(format!("bad {what} `{s}`")))
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

/// A snapshot's statistics, before the model they serve is built.
struct Snapshot {
    beta: BetaIcm,
    tables: SinkTables,
    epoch: u64,
    mark: IngestMark,
}

impl Snapshot {
    /// The model these statistics and the `replay`ed epochs after them
    /// serve.
    fn model(self, replay: &[EpochDelta]) -> StreamModel {
        StreamModel::from_parts(self.beta, self.tables, self.epoch, self.mark, replay)
    }
}

/// Parses an intact snapshot record.
fn parse_snapshot(record: &str) -> FlowResult<Snapshot> {
    let mut lines = record.lines();
    let mut head = tagged(lines.next(), "model")?;
    let epoch = num(&mut head, "epoch")?;
    let mark = parse_mark(&mut head)?;
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
        let b = Beta::try_new(parse_f64(alpha, "alpha")?, parse_f64(beta, "beta")?);
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
    let nodes = beta.graph().node_count();
    let tables = SinkTables::from_summaries(summaries, nodes, timing)
        .map_err(|e| corrupt(format!("invalid stored table: {e}")))?;
    Ok(Snapshot {
        beta,
        tables,
        epoch,
        mark,
    })
}

/// Renders the log record of the epoch `epoch` sealed from `delta`.
fn render_record(epoch: u64, delta: &EpochDelta) -> String {
    let mut out = format!(
        "epoch {epoch} {} events={}\n",
        mark_fields(delta.mark),
        delta.events
    );
    for record in &delta.attributed {
        let _ = writeln!(
            out,
            "a sources={} nodes={} edges={}",
            id_list(record.sources.iter().map(|s| s.index())),
            id_list(record.active_nodes.iter_ones()),
            id_list(record.active_edges.iter_ones())
        );
    }
    for episode in &delta.episodes {
        out.push('u');
        for &(v, t) in episode.activations() {
            let _ = write!(out, " {}@{t}", v.0);
        }
        out.push('\n');
    }
    out
}

/// Parses a comma-separated id list (empty for none) into a bit set of
/// `len` bits, each id checked to be in range.
fn parse_set(s: &str, len: usize, what: &str) -> FlowResult<BitSet> {
    let mut set = BitSet::new(len);
    for tok in s.split(',').filter(|_| !s.is_empty()) {
        match usize::try_from(parse_u64(tok, what)?) {
            Ok(i) if i < len => set.set(i, true),
            _ => return Err(corrupt(format!("{what} {tok} out of range for {len}"))),
        }
    }
    Ok(set)
}

/// Parses an `a` line's tokens into a record that is valid on `graph`.
fn parse_attributed(
    mut toks: SplitWhitespace<'_>,
    graph: &DiGraph,
) -> FlowResult<AttributedRecord> {
    let sources = parse_ids(kv(&mut toks, "sources")?, "source")?;
    if let Some(s) = sources.iter().find(|&&s| s >= graph.node_count() as u64) {
        return Err(corrupt(format!("source {s} out of range")));
    }
    let record = AttributedRecord {
        sources: sources.into_iter().map(|s| NodeId(s as u32)).collect(),
        active_nodes: parse_set(kv(&mut toks, "nodes")?, graph.node_count(), "node")?,
        active_edges: parse_set(kv(&mut toks, "edges")?, graph.edge_count(), "edge")?,
    };
    record
        .validate(graph)
        .map_err(|e| corrupt(format!("invalid logged cascade: {e}")))?;
    Ok(record)
}

/// Parses a `u` line's `node@time` tokens into an episode on `graph`.
fn parse_episode(toks: SplitWhitespace<'_>, graph: &DiGraph) -> FlowResult<Episode> {
    let mut seen = BitSet::new(graph.node_count());
    let mut activations = Vec::new();
    for tok in toks {
        let (v, t) = tok
            .split_once('@')
            .ok_or_else(|| corrupt(format!("expected `node@time`, found `{tok}`")))?;
        let v = parse_u64(v, "episode node")?;
        let t = u32::try_from(parse_u64(t, "activation time")?)
            .map_err(|_| corrupt(format!("activation time out of range in `{tok}`")))?;
        match usize::try_from(v) {
            Ok(i) if i < graph.node_count() && !seen.get(i) => seen.set(i, true),
            _ => return Err(corrupt(format!("bad or repeated episode node `{tok}`"))),
        }
        activations.push((NodeId(v as u32), t));
    }
    Ok(Episode::new(activations))
}

/// Parses an intact log record into its epoch and delta on `graph`.
fn parse_record(record: &str, graph: &DiGraph) -> FlowResult<(u64, EpochDelta)> {
    let mut lines = record.lines();
    let mut head = lines.next().unwrap_or("").split_whitespace();
    let epoch = match (head.next(), head.next()) {
        (Some("epoch"), Some(epoch)) => parse_u64(epoch, "epoch")?,
        _ => return Err(corrupt("expected an `epoch` line")),
    };
    let mut delta = EpochDelta {
        mark: parse_mark(&mut head)?,
        events: num(&mut head, "events")?,
        ..EpochDelta::default()
    };
    for line in lines {
        let mut toks = line.split_whitespace();
        match toks.next() {
            Some("a") => delta.attributed.push(parse_attributed(toks, graph)?),
            Some("u") => delta.episodes.push(parse_episode(toks, graph)?),
            _ => return Err(corrupt(format!("unexpected log line `{line}`"))),
        }
    }
    Ok((epoch, delta))
}

impl SnapshotStore {
    /// A store rooted at `dir` (created on first persist).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SnapshotStore {
            dir: dir.into(),
            log: None,
        }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn snapshot_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("epoch-{epoch:06}.snap"))
    }

    fn log_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("epoch-{epoch:06}.log"))
    }

    /// The store's files named `epoch-NNNNNN.<ext>`, oldest first (none
    /// when the directory does not exist yet).
    fn files(&self, ext: &str) -> FlowResult<Vec<(u64, PathBuf)>> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut files: Vec<(u64, PathBuf)> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name();
                let (epoch, found) = name.to_str()?.strip_prefix("epoch-")?.split_once('.')?;
                (found == ext).then_some(())?;
                Some((epoch.parse().ok()?, e.path()))
            })
            .collect();
        files.sort();
        Ok(files)
    }

    /// Writes `model`'s synced snapshot, starts its epoch's log afresh,
    /// and deletes every snapshot and log older than the snapshot
    /// before it, so the store holds its two newest snapshots and their
    /// logs. Files of later epochs, left by an earlier run in the same
    /// directory, are deleted too: they are no part of this history.
    pub fn persist(&mut self, model: &StreamModel) -> FlowResult<PathBuf> {
        let (path, log) = (
            self.snapshot_path(model.epoch()),
            self.log_path(model.epoch()),
        );
        // A log of this number left by an earlier run belongs to a
        // snapshot this one replaces.
        match std::fs::remove_file(&log) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }
        let bytes = persist::write_synced(&path, STREAM_SNAPSHOT, &[render(model)])?;
        self.log = Some((log, bytes));
        let current = model.epoch();
        let snapshots = self.files("snap")?;
        let mut older = snapshots
            .iter()
            .map(|(epoch, _)| *epoch)
            .filter(|&e| e < current);
        let keep = older.next_back().unwrap_or(current);
        for (epoch, old) in snapshots.into_iter().chain(self.files("log")?) {
            if epoch < keep || epoch > current {
                std::fs::remove_file(old)?;
            }
        }
        Ok(path)
    }

    /// Makes the epoch `model` just sealed from `delta` durable: appends
    /// its record to the log, or writes a snapshot when this handle has
    /// none yet or the record would grow the log past its snapshot's
    /// size. Returns the snapshot's path when it wrote one.
    fn seal(&mut self, model: &StreamModel, delta: &EpochDelta) -> FlowResult<Option<PathBuf>> {
        if let Some((log, limit)) = &self.log {
            let record = render_record(model.epoch(), delta);
            if persist::append(log, STREAM_LOG, &record, *limit)?.is_some() {
                return Ok(None);
            }
        }
        self.persist(model).map(Some)
    }

    /// Reads, checksum-verifies and parses one snapshot file.
    fn read_snapshot(&self, path: &Path) -> FlowResult<Snapshot> {
        let record = persist::read_one(path, STREAM_SNAPSHOT)?.ok_or_else(|| FlowError::Io {
            detail: format!("no snapshot at {}", path.display()),
        })?;
        parse_snapshot(&record)
    }

    /// Loads and checksum-verifies one snapshot file.
    pub fn load(&self, path: &Path) -> FlowResult<StreamModel> {
        self.read_snapshot(path).map(|snapshot| snapshot.model(&[]))
    }

    /// Recovers the newest durable epoch: the newest snapshot that
    /// passes its checksum, skipping corrupt or torn ones, with its
    /// log's records replayed onto it. Returns `None` on an empty store.
    pub fn load_latest(&self) -> FlowResult<Option<(StreamModel, Recovered)>> {
        for (epoch, path) in self.files("snap")?.into_iter().rev() {
            let stored = match self.read_snapshot(&path) {
                Ok(stored) => stored,
                Err(_) => {
                    flow_obs::counter("stream.snapshot_skipped", 1);
                    continue;
                }
            };
            let deltas = self.replay(epoch, stored.beta.graph())?;
            let replayed = deltas.len();
            let model = stored.model(&deltas);
            let snapshot = path;
            return Ok(Some((model, Recovered { snapshot, replayed })));
        }
        Ok(None)
    }

    /// The deltas of the intact records of the log after snapshot
    /// `epoch`, parsed on its `graph`, in order, up to the first record
    /// that is damaged or does not seal the next epoch.
    fn replay(&self, epoch: u64, graph: &DiGraph) -> FlowResult<Vec<EpochDelta>> {
        let Some(log) = persist::read(&self.log_path(epoch), STREAM_LOG)? else {
            return Ok(Vec::new());
        };
        if !log.damage.is_empty() {
            flow_obs::counter("stream.log_damaged", log.damage.len() as u64);
        }
        let mut deltas = Vec::new();
        for record in &log.records {
            match parse_record(record, graph) {
                Ok((next, delta)) if next == epoch + 1 + deltas.len() as u64 => deltas.push(delta),
                _ => break,
            }
        }
        Ok(deltas)
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
    /// The snapshot the seal wrote: `None` when it only appended to the
    /// log, or when running store-less.
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

    /// Resumes from the newest durable epoch in `store` (see
    /// [`SnapshotStore::load_latest`]), or `None` when the store holds
    /// no snapshot. The first seal after a resume writes a snapshot, so
    /// no log is ever appended to after a crash.
    pub fn recover(store: SnapshotStore) -> FlowResult<Option<(Self, Recovered)>> {
        let Some((model, recovered)) = store.load_latest()? else {
            return Ok(None);
        };
        let store = Some(store);
        Ok(Some((ModelRegistry { model, store }, recovered)))
    }

    /// The live model.
    pub fn model(&self) -> &StreamModel {
        &self.model
    }

    /// Applies one epoch's delta and makes it durable before returning:
    /// a synced log record, or a synced snapshot (see the module docs).
    pub fn seal_epoch(&mut self, delta: &EpochDelta) -> FlowResult<EpochReport> {
        self.model.apply(delta)?;
        let snapshot = match &mut self.store {
            Some(store) => store.seal(&self.model, delta)?,
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

    /// Epoch `i`'s event lines: one attributed and one unattributed
    /// cascade whose shapes vary with `i`, so every epoch moves the
    /// model.
    fn epoch_lines(i: u64) -> Vec<String> {
        let (a, u) = (2 * i + 1, 2 * i + 2);
        let mut lines = vec![format!(r#"{{"cascade": {a}, "node": 0, "t": 0}}"#)];
        let hop = 1 + i % 2;
        lines.push(format!(
            r#"{{"cascade": {a}, "node": {hop}, "t": 1, "parent": 0}}"#
        ));
        if i.is_multiple_of(3) {
            lines.push(format!(
                r#"{{"cascade": {a}, "node": 3, "t": 2, "parent": {hop}}}"#
            ));
        }
        lines.push(format!(r#"{{"cascade": {u}, "node": {hop}, "t": 0}}"#));
        lines.push(format!(
            r#"{{"cascade": {u}, "node": 3, "t": {}}}"#,
            2 + i % 4
        ));
        lines
    }

    /// Pushes epoch `i`'s lines, numbered on from the last seal's
    /// mark, and seals them.
    fn next_delta(ing: &mut Ingestor, i: u64, line: &mut usize) -> EpochDelta {
        for text in epoch_lines(i) {
            *line += 1;
            ing.push_line(*line, &text).unwrap();
        }
        ing.seal_epoch()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("flow-stream-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn size(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    #[test]
    fn snapshot_roundtrip_preserves_every_bit() {
        let dir = tmp_dir("roundtrip");
        let mut store = SnapshotStore::new(&dir);
        let model = trained_model();
        let path = store.persist(&model).unwrap();
        let loaded = store.load(&path).unwrap();
        assert_eq!(loaded.epoch(), model.epoch());
        assert_eq!(loaded.mark(), model.mark());
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
    fn beta_parameters_read_back_bit_for_bit() {
        let graph = diamond();
        let params = [0.1, 1.0 / 3.0, 1e-300, 123456.789]
            .iter()
            .map(|&a| Beta::new(a, 1.0 + a))
            .collect();
        let tables = SinkTables::new(&graph, TimingAssumption::AnyEarlier);
        let model = StreamModel::from_parts(
            BetaIcm::new(graph, params),
            tables,
            3,
            IngestMark::default(),
            &[],
        );
        let loaded = parse_snapshot(&render(&model)).unwrap().model(&[]);
        for (a, b) in loaded.beta().params().iter().zip(model.beta().params()) {
            assert_eq!(a.alpha().to_bits(), b.alpha().to_bits());
            assert_eq!(a.beta().to_bits(), b.beta().to_bits());
        }
        assert_eq!(loaded.state_fingerprint(), model.state_fingerprint());
    }

    #[test]
    fn log_records_round_trip_every_field() {
        let mut ing = Ingestor::with_graph(diamond(), IngestConfig::default());
        let mut line = 0;
        let graph = diamond();
        for i in 0..6 {
            let delta = next_delta(&mut ing, i, &mut line);
            assert!(!delta.attributed.is_empty() && !delta.episodes.is_empty());
            let (epoch, parsed) = parse_record(&render_record(i + 1, &delta), &graph).unwrap();
            assert_eq!(epoch, i + 1);
            assert_eq!(parsed, delta);
        }
        // Before any cascade seals there is no watermark.
        let (_, empty) = parse_record(&render_record(1, &EpochDelta::default()), &graph).unwrap();
        assert_eq!(empty, EpochDelta::default());
        // A record that names what the graph lacks is corrupt, never a
        // panic.
        for bad in [
            "epoch 1 line=1 watermark=none events=1\na sources=9 nodes=9 edges=\n",
            "epoch 1 line=1 watermark=none events=1\na sources=0 nodes=0,3 edges=\n",
            "epoch 1 line=1 watermark=none events=2\nu 1@0 1@2\n",
            "epoch 1 line=1 watermark=none events=1\nu 7@0\n",
            "epoch 1 line=1 events=1\n",
            "model epoch=1\n",
        ] {
            let err = parse_record(bad, &graph).unwrap_err();
            assert!(matches!(err, FlowError::Checkpoint { .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn recovery_at_every_log_length_matches_the_live_model() {
        let dir = tmp_dir("replay");
        let mut ing = Ingestor::with_graph(diamond(), IngestConfig::default());
        let mut line = 0;
        let fresh = StreamModel::new(diamond(), TimingAssumption::AnyEarlier);
        let mut reg = ModelRegistry::new(fresh, Some(SnapshotStore::new(&dir)));
        // The first seal always snapshots.
        let first = reg.seal_epoch(&next_delta(&mut ing, 0, &mut line)).unwrap();
        let snap = first.snapshot.expect("the first seal writes a snapshot");
        let mut snapshots = vec![snap.clone()];
        let mut k = 0;
        for i in 1..40 {
            let report = reg.seal_epoch(&next_delta(&mut ing, i, &mut line)).unwrap();
            let (model, recovered) = SnapshotStore::new(&dir).load_latest().unwrap().unwrap();
            let live = reg.model();
            assert_eq!(model.epoch(), live.epoch());
            assert_eq!(model.mark(), live.mark());
            assert_eq!(model.state_fingerprint(), live.state_fingerprint());
            assert_eq!(model.serve_fingerprint(), live.serve_fingerprint());
            match report.snapshot {
                // A record went to the log: recovery replays it too.
                None => {
                    k += 1;
                    assert_eq!(recovered.replayed, k, "epoch {}", live.epoch());
                    assert_eq!(&recovered.snapshot, snapshots.last().unwrap());
                    let log = dir.join(format!("epoch-{:06}.log", live.epoch() - k as u64));
                    assert!(size(&log) <= size(&recovered.snapshot));
                }
                // The next record would have outgrown the snapshot.
                Some(path) => {
                    assert!(k > 0, "a snapshot is due only once the log has grown");
                    assert_eq!(
                        recovered,
                        Recovered {
                            snapshot: path.clone(),
                            replayed: 0
                        }
                    );
                    snapshots.push(path);
                    k = 0;
                    if snapshots.len() == 3 {
                        break;
                    }
                }
            }
        }
        assert_eq!(
            snapshots.len(),
            3,
            "the log must roll over twice in 40 epochs"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_store_stays_bounded_over_many_seals() {
        let dir = tmp_dir("bounded");
        let mut ing = Ingestor::with_graph(diamond(), IngestConfig::default());
        let mut line = 0;
        let fresh = StreamModel::new(diamond(), TimingAssumption::AnyEarlier);
        let mut reg = ModelRegistry::new(fresh, Some(SnapshotStore::new(&dir)));
        for i in 0..200 {
            reg.seal_epoch(&next_delta(&mut ing, i, &mut line)).unwrap();
            let store = SnapshotStore::new(&dir);
            let snaps = store.files("snap").unwrap();
            let logs = store.files("log").unwrap();
            assert!(snaps.len() <= 2, "epoch {i}: {snaps:?}");
            for (epoch, log) in &logs {
                let snap = store.snapshot_path(*epoch);
                assert!(snap.exists(), "{log:?} outlived its snapshot");
                assert!(size(log) <= size(&snap), "{log:?} outgrew its snapshot");
            }
        }
        let names = std::fs::read_dir(&dir).unwrap().count();
        assert!(names <= 4, "{names} files after 200 seals");
        // A fresh stream in the same directory owns it from its first
        // seal: the earlier run's later epochs cannot be recovered.
        let fresh = StreamModel::new(diamond(), TimingAssumption::AnyEarlier);
        let mut reg = ModelRegistry::new(fresh, Some(SnapshotStore::new(&dir)));
        let (mut ing, mut line) = (Ingestor::with_graph(diamond(), IngestConfig::default()), 0);
        reg.seal_epoch(&next_delta(&mut ing, 0, &mut line)).unwrap();
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["epoch-000001.snap"]);
        let (model, _) = SnapshotStore::new(&dir).load_latest().unwrap().unwrap();
        assert_eq!(model.state_fingerprint(), reg.model().state_fingerprint());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_last_record_recovers_the_epoch_before_it() {
        let dir = tmp_dir("torn-log");
        let mut ing = Ingestor::with_graph(diamond(), IngestConfig::default());
        let mut line = 0;
        let fresh = StreamModel::new(diamond(), TimingAssumption::AnyEarlier);
        let mut reg = ModelRegistry::new(fresh, Some(SnapshotStore::new(&dir)));
        let mut states = Vec::new();
        for i in 0..3 {
            let report = reg.seal_epoch(&next_delta(&mut ing, i, &mut line)).unwrap();
            assert_eq!(report.snapshot.is_some(), i == 0);
            states.push(reg.model().state_fingerprint());
        }
        let log = dir.join("epoch-000001.log");
        let text = std::fs::read(&log).unwrap();
        std::fs::write(&log, &text[..text.len() - 7]).unwrap();
        let (model, recovered) = SnapshotStore::new(&dir).load_latest().unwrap().unwrap();
        assert_eq!(recovered.replayed, 1);
        assert_eq!(model.epoch(), 2);
        assert_eq!(model.state_fingerprint(), states[1]);
        // A damaged middle record stops the replay there: nothing after
        // a gap can apply.
        let mut bytes = text.clone();
        let body = text.windows(3).position(|w| w == b"\na ").unwrap() + 1;
        bytes[body] = b'z';
        std::fs::write(&log, &bytes).unwrap();
        let contents = persist::read(&log, STREAM_LOG).unwrap().unwrap();
        assert_eq!((contents.records.len(), contents.damage.len()), (1, 1));
        let (model, recovered) = SnapshotStore::new(&dir).load_latest().unwrap().unwrap();
        assert_eq!((recovered.replayed, model.epoch()), (0, 1));
        assert_eq!(model.state_fingerprint(), states[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_fails_checksum_and_latest_falls_back() {
        let dir = tmp_dir("fallback");
        let mut store = SnapshotStore::new(&dir);
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
        let (latest, recovered) = store.load_latest().unwrap().unwrap();
        assert_eq!(recovered.snapshot, good);
        assert_eq!(latest.epoch(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_keeps_the_two_newest_epochs() {
        let dir = tmp_dir("two-newest");
        let mut store = SnapshotStore::new(&dir);
        let mut model = trained_model();
        let mut last = Vec::new();
        for _ in 0..5 {
            last.push(store.persist(&model).unwrap());
            model.apply(&EpochDelta::default()).unwrap();
        }
        let epochs: Vec<u64> = store
            .files("snap")
            .unwrap()
            .into_iter()
            .map(|(e, _)| e)
            .collect();
        assert_eq!(epochs, [4, 5]);
        // Tear epoch 5: recovery still lands on epoch 4.
        let newest = &last[4];
        let text = std::fs::read(newest).unwrap();
        std::fs::write(newest, &text[..text.len() / 2]).unwrap();
        let (latest, recovered) = store.load_latest().unwrap().unwrap();
        assert_eq!(recovered.snapshot, last[3]);
        assert_eq!(latest.epoch(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_resumes_and_its_first_seal_snapshots() {
        let dir = tmp_dir("recover");
        assert!(ModelRegistry::recover(SnapshotStore::new(&dir))
            .unwrap()
            .is_none());
        let mut ing = Ingestor::with_graph(diamond(), IngestConfig::default());
        let mut line = 0;
        let fresh = StreamModel::new(diamond(), TimingAssumption::AnyEarlier);
        let mut reg = ModelRegistry::new(fresh, Some(SnapshotStore::new(&dir)));
        for i in 0..2 {
            reg.seal_epoch(&next_delta(&mut ing, i, &mut line)).unwrap();
        }
        let (mut resumed, recovered) = ModelRegistry::recover(SnapshotStore::new(&dir))
            .unwrap()
            .unwrap();
        assert_eq!(recovered.replayed, 1);
        assert_eq!(resumed.model().mark(), reg.model().mark());
        assert_eq!(
            resumed.model().state_fingerprint(),
            reg.model().state_fingerprint()
        );
        // The resumed registry seals the next epoch as the live one
        // does, but through a fresh snapshot: no log is appended to
        // after a restart.
        let delta = next_delta(&mut ing, 2, &mut line);
        let live = reg.seal_epoch(&delta).unwrap();
        let after = resumed.seal_epoch(&delta).unwrap();
        assert!(live.snapshot.is_none());
        assert_eq!(after.snapshot, Some(dir.join("epoch-000003.snap")));
        assert_eq!(
            resumed.model().state_fingerprint(),
            reg.model().state_fingerprint()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
