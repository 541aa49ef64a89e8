//! Versioned, byte-budgeted LRU cache of flow estimates.
//!
//! Each entry stores the *sufficient statistics* of a finished chain —
//! hit counts, sample count, the chain seed, the model version, and a
//! resumable [`ChainCheckpoint`] — not just the point estimate. That
//! buys two serving behaviours:
//!
//! * **precision-aware admission**: a lookup is a usable hit only when
//!   the entry's confidence half-width meets the request's tolerance
//!   (the engine checks this; the cache just reports the entry), so a
//!   sloppy early answer never masquerades as a precise one;
//! * **warm refinement**: when the cached precision is insufficient,
//!   the checkpoint seeds a continuation of the *same* chain and the
//!   old counts pool with the new ones — cached work is never thrown
//!   away, it is a head start.
//!
//! Entries are keyed by [`QueryKey::hash64`] and verified against the
//! full key on every read, so hash collisions degrade to misses. The
//! model fingerprint inside the key versions the population: retraining
//! the ICM changes every key, and stale entries age out through the LRU
//! byte budget. Hit/miss/eviction counters mirror to `flow-obs`
//! (`serve.cache.*`) for the serving smoke test and dashboards.
//!
//! Persistence (DESIGN.md §12) goes through [`flow_core::persist`]:
//! one checksummed record per entry, written to a temp file and
//! renamed into place, so a process crash mid-save never leaves a half
//! cache (the file is not fsynced, so an OS crash still can). A
//! damaged record found on load, or one that no longer parses, is
//! *quarantined* — moved verbatim into a `quarantine/` sidecar
//! directory next to the cache file — while every intact record still
//! loads. Corruption therefore costs cache misses, never a panic and
//! never a wrong answer; a `serve.cache_quarantined` event records each
//! incident. A file under any other schema header (older versions
//! included) is quarantined wholesale: a cold start.

use crate::key::QueryKey;
use flow_core::schema::SERVE_CACHE;
use flow_core::{persist, FlowError, FlowResult};
use flow_mcmc::{ChainCheckpoint, TargetCounts};
use std::collections::HashMap;
use std::path::Path;

/// The cache file's name inside its directory.
const FILE: &str = "cache.flowserve";

/// 95% confidence half-width of a Bernoulli frequency estimate from `n`
/// samples. The variance is floored at `1/n` so degenerate estimates
/// (all hits or none) still report honest, shrinking-with-`n` width;
/// `n = 0` is infinitely wide.
pub fn half_width(estimate: f64, n: u64) -> f64 {
    if n == 0 {
        return f64::INFINITY;
    }
    let nf = n as f64;
    let variance = (estimate * (1.0 - estimate)).max(1.0 / nf);
    1.96 * (variance / nf).sqrt()
}

/// One cached chain result.
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// The canonical query this entry answers.
    pub key: QueryKey,
    /// Accumulated hit counts for the key's target.
    pub counts: TargetCounts,
    /// Retained samples behind `counts`.
    pub samples: u64,
    /// Chain seed the trajectory started from (refinements keep it).
    pub seed: u64,
    /// Model fingerprint at collection time (mirrors `key.fingerprint`;
    /// checked explicitly on read as a corruption guard).
    pub model_version: u64,
    /// Resumable chain state for warm refinement.
    pub checkpoint: ChainCheckpoint,
}

impl CacheEntry {
    /// The point estimate: all-targets hit frequency.
    pub fn estimate(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.counts.all as f64 / self.samples as f64
        }
    }

    /// The entry's 95% confidence half-width.
    pub fn half_width(&self) -> f64 {
        half_width(self.estimate(), self.samples)
    }

    /// Approximate heap footprint, for the byte budget.
    pub fn approx_bytes(&self) -> usize {
        let key_bytes = 64
            + self.key.conditions.len() * 12
            + match &self.key.target {
                flow_mcmc::SharedTarget::Sink(_) => 8,
                flow_mcmc::SharedTarget::Community(m) => 8 + m.len() * 4,
            };
        let ckpt_bytes = 96 + self.checkpoint.active_edges.len() * 4;
        key_bytes + ckpt_bytes + 64
    }
}

#[derive(Debug)]
struct Slot {
    entry: CacheEntry,
    last_used: u64,
    bytes: usize,
}

/// The LRU estimate cache.
#[derive(Debug)]
pub struct ServeCache {
    slots: HashMap<u64, Slot>,
    byte_budget: usize,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    quarantined: u64,
}

impl ServeCache {
    /// An empty cache bounded by `byte_budget` approximate bytes.
    pub fn new(byte_budget: usize) -> Self {
        ServeCache {
            slots: HashMap::new(),
            byte_budget,
            bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            quarantined: 0,
        }
    }

    /// Looks up an entry, bumping its recency. A hash match whose full
    /// key or model version disagrees counts as a miss (collision or
    /// corruption), never as a wrong answer.
    pub fn lookup(&mut self, key: &QueryKey) -> Option<&CacheEntry> {
        self.tick += 1;
        let tick = self.tick;
        let hash = key.hash64();
        let found = match self.slots.get_mut(&hash) {
            Some(slot) if slot.entry.key == *key && slot.entry.model_version == key.fingerprint => {
                slot.last_used = tick;
                true
            }
            _ => false,
        };
        // The lookup event inherits the planner's ambient TraceContext,
        // so a query's trace records whether it touched a warm entry.
        flow_obs::event(|| flow_obs::Event::new("serve.cache.lookup").bool("hit", found));
        if found {
            self.hits += 1;
            flow_obs::counter("serve.cache.hit", 1);
            self.slots.get(&hash).map(|s| &s.entry)
        } else {
            self.misses += 1;
            flow_obs::counter("serve.cache.miss", 1);
            None
        }
    }

    /// Inserts (or replaces) an entry, then evicts least-recently-used
    /// entries until the byte budget holds. An entry larger than the
    /// whole budget is dropped immediately (counted as an eviction).
    pub fn insert(&mut self, entry: CacheEntry) {
        self.tick += 1;
        let hash = entry.key.hash64();
        let bytes = entry.approx_bytes();
        if let Some(old) = self.slots.remove(&hash) {
            self.bytes -= old.bytes;
        }
        if bytes > self.byte_budget {
            self.evictions += 1;
            flow_obs::counter("serve.cache.evict", 1);
            flow_obs::gauge("serve.cache.bytes", self.bytes as f64);
            return;
        }
        self.bytes += bytes;
        self.slots.insert(
            hash,
            Slot {
                entry,
                last_used: self.tick,
                bytes,
            },
        );
        while self.bytes > self.byte_budget {
            let victim = self
                .slots
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(h, _)| *h);
            let Some(victim) = victim else { break };
            if let Some(gone) = self.slots.remove(&victim) {
                self.bytes -= gone.bytes;
                self.evictions += 1;
                flow_obs::counter("serve.cache.evict", 1);
            }
        }
        flow_obs::gauge("serve.cache.bytes", self.bytes as f64);
    }

    /// Drops every entry whose model version differs from
    /// `fingerprint`, returning how many were removed.
    ///
    /// This is the hot-swap hook: when a new model version is installed
    /// (e.g. a `flow-stream` epoch seal), entries keyed on older
    /// fingerprints can never hit again — their keys embed the old
    /// version — so they are reclaimed eagerly instead of aging out
    /// through the LRU byte budget. Each sweep mirrors to `flow-obs` as
    /// `serve.cache.invalidate`.
    pub fn invalidate_stale(&mut self, fingerprint: u64) -> usize {
        let stale: Vec<u64> = self
            .slots
            .iter()
            .filter(|(_, s)| s.entry.model_version != fingerprint)
            .map(|(h, _)| *h)
            .collect();
        let removed = stale.len();
        for hash in stale {
            if let Some(gone) = self.slots.remove(&hash) {
                self.bytes -= gone.bytes;
            }
        }
        if removed > 0 {
            flow_obs::counter("serve.cache.invalidate", removed as u64);
            flow_obs::gauge("serve.cache.bytes", self.bytes as f64);
        }
        removed
    }

    /// Cache hits since construction (or load).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses since construction (or load).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Evictions since construction (or load).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Corrupt persisted blocks quarantined by the load that built this
    /// cache (0 for caches that were never loaded from disk).
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Approximate resident bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Renders one entry as its persisted record: the key, counts,
    /// sample count and seed lines, then the chain checkpoint's text.
    fn render_entry(e: &CacheEntry) -> String {
        format!(
            "key={}\ncounts={} {} {}\nsamples={}\nseed={}\n{}",
            e.key.to_text(),
            e.counts.all,
            e.counts.any,
            e.counts.members,
            e.samples,
            e.seed,
            e.checkpoint.to_text()
        )
    }

    /// Persists every resident entry to `<dir>/cache.flowserve`, one
    /// [`flow_core::persist`] record per entry, sorted by key hash so
    /// the file is deterministic for a given population.
    pub fn save_to_dir(&self, dir: &Path) -> FlowResult<()> {
        let mut slots: Vec<(&u64, &Slot)> = self.slots.iter().collect();
        slots.sort_unstable_by_key(|(hash, _)| **hash);
        let records: Vec<String> = slots
            .into_iter()
            .map(|(_, slot)| Self::render_entry(&slot.entry))
            .collect();
        persist::write(&dir.join(FILE), SERVE_CACHE, &records)
    }

    /// Loads a cache persisted by [`ServeCache::save_to_dir`]. A missing
    /// file yields an empty cache (cold start). Damage the reader
    /// reports — bad header, torn or missing records, checksum
    /// mismatches — and records that do not parse are quarantined into
    /// `<dir>/quarantine/` while every intact record still loads;
    /// [`ServeCache::quarantined`] counts the incidents. Only real I/O
    /// failures surface as errors.
    pub fn load_from_dir(dir: &Path, byte_budget: usize) -> FlowResult<Self> {
        let mut cache = ServeCache::new(byte_budget);
        let Some(contents) = persist::read(&dir.join(FILE), SERVE_CACHE)? else {
            return Ok(cache);
        };
        let mut quarantined: Vec<(String, String)> = contents
            .damage
            .into_iter()
            .map(|d| (d.to_string(), d.text))
            .collect();
        for record in contents.records {
            match Self::parse_entry(&record) {
                Ok(entry) => cache.insert(entry),
                Err(e) => quarantined.push((e.to_string(), record)),
            }
        }
        // Loading is population, not traffic.
        cache.evictions = 0;
        if !quarantined.is_empty() {
            let qdir = dir.join("quarantine");
            std::fs::create_dir_all(&qdir)?;
            // Number on from the highest block an earlier load kept, so
            // no load overwrites another's evidence.
            let next = std::fs::read_dir(&qdir)?
                .filter_map(|e| e.ok())
                .filter_map(|e| {
                    let name = e.file_name();
                    let n = name
                        .to_str()?
                        .strip_prefix("block-")?
                        .strip_suffix(".txt")?;
                    n.parse::<u64>().ok()
                })
                .max()
                .map_or(0, |n| n + 1);
            for (n, (reason, block)) in (next..).zip(&quarantined) {
                let body = format!("# quarantined: {reason}\n{block}");
                std::fs::write(qdir.join(format!("block-{n:04}.txt")), body)?;
            }
            cache.quarantined = quarantined.len() as u64;
            flow_obs::counter("serve.cache.quarantined", quarantined.len() as u64);
            flow_obs::event(|| {
                flow_obs::Event::new("serve.cache_quarantined")
                    .u64("blocks", quarantined.len() as u64)
                    .str("reason", quarantined[0].0.clone())
            });
        }
        Ok(cache)
    }

    /// Parses one intact record back into an entry.
    fn parse_entry(record: &str) -> FlowResult<CacheEntry> {
        let corrupt = |detail: String| FlowError::Checkpoint { detail };
        // Four field lines, then the checkpoint text to the end.
        let mut lines = record.splitn(5, '\n');
        let [key, counts, samples, seed] = ["key=", "counts=", "samples=", "seed="].map(|prefix| {
            let line = lines.next().unwrap_or_default();
            line.strip_prefix(prefix)
                .ok_or_else(|| corrupt(format!("expected `{prefix}...`, got `{line}`")))
        });
        let number = |text: &str| {
            text.parse::<u64>()
                .map_err(|_| corrupt(format!("bad number `{text}`")))
        };
        let key = QueryKey::from_text(key?)?;
        let counts = counts?;
        let parsed = counts.split_whitespace().map(number);
        let [all, any, members] = parsed.collect::<FlowResult<Vec<_>>>()?[..] else {
            return Err(corrupt(format!("bad counts `{counts}`")));
        };
        Ok(CacheEntry {
            model_version: key.fingerprint,
            key,
            counts: TargetCounts { all, any, members },
            samples: number(samples?)?,
            seed: number(seed?)?,
            checkpoint: ChainCheckpoint::from_text(lines.next().unwrap_or_default())?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_graph::graph::graph_from_edges;
    use flow_graph::NodeId;
    use flow_icm::Icm;
    use flow_mcmc::{McmcConfig, SharedTarget};

    fn icm() -> Icm {
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        Icm::new(g, vec![0.7, 0.4, 0.5, 0.6])
    }

    fn entry_for(model: &Icm, sink: u32, samples: u64) -> CacheEntry {
        let key = QueryKey::canonical(
            NodeId(0),
            &SharedTarget::Sink(NodeId(sink)),
            &[],
            &McmcConfig::default(),
            model,
        )
        .unwrap();
        let fingerprint = key.fingerprint;
        CacheEntry {
            key,
            counts: TargetCounts {
                all: samples / 2,
                any: samples / 2,
                members: samples / 2,
            },
            samples,
            seed: 42,
            model_version: fingerprint,
            checkpoint: ChainCheckpoint {
                edge_count: model.edge_count(),
                active_edges: vec![0, 2],
                proposal: Default::default(),
                steps: 1000,
                accepted: 400,
                rng_state: [1, 2, 3, 4],
            },
        }
    }

    #[test]
    fn invalidate_stale_drops_only_old_versions() {
        let old_model = icm();
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let new_model = Icm::new(g, vec![0.7, 0.4, 0.5, 0.61]);
        let mut cache = ServeCache::new(1 << 20);
        cache.insert(entry_for(&old_model, 1, 100));
        cache.insert(entry_for(&old_model, 3, 100));
        cache.insert(entry_for(&new_model, 3, 100));
        let bytes_before = cache.bytes();
        let new_fp = crate::key::model_fingerprint(&new_model);
        assert_eq!(cache.invalidate_stale(new_fp), 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.bytes() < bytes_before);
        // The surviving entry still answers its key.
        assert!(cache.lookup(&entry_for(&new_model, 3, 100).key).is_some());
        // Idempotent: nothing left to drop.
        assert_eq!(cache.invalidate_stale(new_fp), 0);
    }

    #[test]
    fn half_width_shrinks_and_floors() {
        assert!(half_width(0.5, 0).is_infinite());
        assert!(half_width(0.5, 100) > half_width(0.5, 10_000));
        // Degenerate estimates still report non-zero width.
        assert!(half_width(0.0, 1000) > 0.0);
        assert!(half_width(1.0, 1000) > 0.0);
    }

    #[test]
    fn lookup_hits_then_misses_on_other_key() {
        let model = icm();
        let mut cache = ServeCache::new(1 << 20);
        cache.insert(entry_for(&model, 3, 100));
        let hit_key = entry_for(&model, 3, 100).key;
        let miss_key = entry_for(&model, 1, 100).key;
        assert!(cache.lookup(&hit_key).is_some());
        assert!(cache.lookup(&miss_key).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn lru_eviction_respects_byte_budget_and_recency() {
        let model = icm();
        let one = entry_for(&model, 1, 100).approx_bytes();
        // Room for two entries, not three.
        let mut cache = ServeCache::new(one * 2 + one / 2);
        cache.insert(entry_for(&model, 1, 100));
        cache.insert(entry_for(&model, 2, 100));
        // Touch sink-1 so sink-2 is the LRU victim.
        let k1 = entry_for(&model, 1, 100).key;
        assert!(cache.lookup(&k1).is_some());
        cache.insert(entry_for(&model, 3, 100));
        assert_eq!(cache.evictions(), 1);
        assert!(cache.lookup(&k1).is_some(), "recently-used entry survives");
        let k2 = entry_for(&model, 2, 100).key;
        assert!(cache.lookup(&k2).is_none(), "LRU entry was evicted");
        assert!(cache.bytes() <= one * 2 + one / 2);
    }

    #[test]
    fn oversized_entry_is_refused() {
        let model = icm();
        let mut cache = ServeCache::new(8);
        cache.insert(entry_for(&model, 1, 100));
        assert!(cache.is_empty());
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn persistence_round_trips() {
        let model = icm();
        let dir = std::env::temp_dir().join(format!(
            "flow-serve-cache-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let mut cache = ServeCache::new(1 << 20);
        cache.insert(entry_for(&model, 1, 100));
        cache.insert(entry_for(&model, 3, 250));
        cache.save_to_dir(&dir).unwrap();
        let mut loaded = ServeCache::load_from_dir(&dir, 1 << 20).unwrap();
        assert_eq!(loaded.len(), 2);
        let k = entry_for(&model, 3, 250).key;
        let e = loaded.lookup(&k).unwrap();
        assert_eq!(e.samples, 250);
        assert_eq!(e.counts.all, 125);
        assert_eq!(e.checkpoint.rng_state, [1, 2, 3, 4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_cache_dir_loads_empty() {
        let dir = std::env::temp_dir().join("flow-serve-no-such-cache-dir");
        let cache = ServeCache::load_from_dir(&dir, 1 << 20).unwrap();
        assert!(cache.is_empty());
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("flow-serve-cache-{tag}-{}", std::process::id()))
    }

    #[test]
    fn corrupt_header_quarantines_the_file_and_loads_empty() {
        let dir = tmp_dir("bad-header");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("cache.flowserve"), "not a cache\n").unwrap();
        let cache = ServeCache::load_from_dir(&dir, 1 << 20).unwrap();
        assert!(cache.is_empty(), "corrupt file must cold-start, not panic");
        assert_eq!(cache.quarantined(), 1);
        assert!(
            dir.join("quarantine").join("block-0000.txt").exists(),
            "corrupt bytes must be preserved in the sidecar"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repeated_damaged_loads_keep_every_quarantined_block() {
        let dir = tmp_dir("repeat-quarantine");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        for text in ["first damaged file\n", "second damaged file\n"] {
            std::fs::write(dir.join("cache.flowserve"), text).unwrap();
            let cache = ServeCache::load_from_dir(&dir, 1 << 20).unwrap();
            assert_eq!(cache.quarantined(), 1);
        }
        let qdir = dir.join("quarantine");
        assert_eq!(std::fs::read_dir(&qdir).unwrap().count(), 2);
        let first = std::fs::read_to_string(qdir.join("block-0000.txt")).unwrap();
        let second = std::fs::read_to_string(qdir.join("block-0001.txt")).unwrap();
        assert!(first.contains("first damaged file"), "{first}");
        assert!(second.contains("second damaged file"), "{second}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_byte_quarantines_one_entry_and_loads_the_rest() {
        let model = icm();
        let dir = tmp_dir("flipped-byte");
        let mut cache = ServeCache::new(1 << 20);
        cache.insert(entry_for(&model, 1, 100));
        cache.insert(entry_for(&model, 3, 250));
        cache.save_to_dir(&dir).unwrap();
        // Flip a digit inside the first entry's counts line.
        let path = dir.join("cache.flowserve");
        let text = std::fs::read_to_string(&path).unwrap();
        let target = text.lines().find(|l| l.starts_with("counts=")).unwrap();
        let vandalized = text.replacen(target, "counts=999999 0 0", 1);
        assert_ne!(text, vandalized);
        std::fs::write(&path, vandalized).unwrap();

        let mut loaded = ServeCache::load_from_dir(&dir, 1 << 20).unwrap();
        assert_eq!(loaded.quarantined(), 1, "checksum must catch the flip");
        assert_eq!(loaded.len(), 1, "the intact entry still loads");
        let intact: Vec<u64> = [1u32, 3u32]
            .iter()
            .filter(|&&s| loaded.lookup(&entry_for(&model, s, 100).key).is_some())
            .map(|&s| u64::from(s))
            .collect();
        assert_eq!(intact.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_quarantines_without_losing_the_intact_prefix() {
        let model = icm();
        let dir = tmp_dir("torn-tail");
        let mut cache = ServeCache::new(1 << 20);
        cache.insert(entry_for(&model, 1, 100));
        cache.insert(entry_for(&model, 2, 100));
        cache.insert(entry_for(&model, 3, 100));
        cache.save_to_dir(&dir).unwrap();
        let path = dir.join("cache.flowserve");
        let text = std::fs::read_to_string(&path).unwrap();
        // Cut mid-way through the last entry, as a crash would.
        let cut = text.len() - text.len() / 5;
        std::fs::write(&path, &text[..cut]).unwrap();

        let loaded = ServeCache::load_from_dir(&dir, 1 << 20).unwrap();
        assert!(loaded.quarantined() >= 1, "torn tail must be quarantined");
        assert_eq!(loaded.len(), 2, "intact prefix entries survive");
        std::fs::remove_dir_all(&dir).ok();
    }
}
