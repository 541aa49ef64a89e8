//! Canonical query identity: the [`QueryKey`].
//!
//! Two serving requests must share cache entries and chains exactly when
//! they ask the same statistical question. The key therefore stores
//! *canonical* coordinates only:
//!
//! * the flow source and target (community members sorted + deduped);
//! * the condition set normalized against the model's graph by
//!   [`flow_icm::query::normalize_conditions`] (sorted, deduped, free of
//!   conditions that always hold, contradiction-free), so permuted or
//!   duplicated condition lists collide;
//! * the *resolved* chain configuration ([`ConfigClass`]): burn-in,
//!   thinning, and proposal convention after edge-count defaults are
//!   applied — two configs that resolve identically are the same class
//!   (sample counts are per-request precision knobs, not identity).
//!   A key without conditions always resolves to [`ConfigClass::EXACT`]
//!   (exact Eq. 3 draws: no burn-in, every draw retained), because its
//!   target factorizes over edges; only conditioned keys take the
//!   configured Metropolis–Hastings class (§III-D);
//! * a [`model_fingerprint`] over the ICM's shape and exact edge
//!   probability bits, versioning every entry: retrain the model and
//!   the old cache population silently misses instead of serving stale
//!   estimates. The model computes it once and keeps it, so keying a
//!   query reads it rather than rehashing every edge.
//!
//! Hashing is FNV-1a (64-bit): deterministic across runs and platforms,
//! no dependency, and stable enough for an in-process cache index. Key
//! equality — not just hash equality — guards every cache read, so an
//! FNV collision costs a miss, never a wrong answer.
//!
//! The key's *chain key* ([`QueryKey::chain_key`]) deliberately excludes
//! the target: every same-source, same-conditions, same-class query
//! shares one chain trajectory, which is what makes batch answers
//! bit-identical to solo answers and lets the planner group them.

use flow_core::{FlowError, FlowResult};
use flow_graph::NodeId;
use flow_icm::query::normalize_conditions;
use flow_icm::{FlowCondition, Icm};
use flow_mcmc::{McmcConfig, ProposalKind, SharedTarget};

// Both hoisted to shared crates so `flow-stream`'s registry and this
// cache hash models identically; re-exported here for existing callers.
pub use flow_core::Fnv64;
pub use flow_icm::model_fingerprint;

/// The resolved chain-shaping parameters of an [`McmcConfig`]: the
/// burn-in and thinning actually used for a given edge count, plus the
/// proposal convention. Two configs in the same class drive identical
/// trajectories from the same seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigClass {
    /// Resolved burn-in steps.
    pub burn_in: u64,
    /// Resolved thinning interval (steps per retained sample).
    pub thin: u64,
    /// Proposal-weight convention.
    pub proposal: ProposalKind,
}

impl ConfigClass {
    /// The class of every key without conditions: the independence
    /// kernel, whose every step is an exact draw from Eq. 3, so no
    /// burn-in is needed and each step is retained.
    pub const EXACT: ConfigClass = ConfigClass {
        burn_in: 0,
        thin: 1,
        proposal: ProposalKind::Independent,
    };

    /// Resolves a config against a model with `m` edges.
    pub fn of(config: &McmcConfig, m: usize) -> Self {
        ConfigClass {
            burn_in: config.burn_in_steps(m) as u64,
            thin: config.thin_steps(m) as u64,
            proposal: config.proposal,
        }
    }

    /// Rebuilds an explicit (already-resolved) [`McmcConfig`] asking for
    /// `samples` retained samples.
    pub fn to_config(self, samples: usize) -> McmcConfig {
        McmcConfig {
            samples,
            burn_in: Some(self.burn_in as usize),
            thin: Some(self.thin as usize),
            proposal: self.proposal,
        }
    }

    fn proposal_tag(self) -> u64 {
        match self.proposal {
            ProposalKind::ResultingActivity => 0,
            ProposalKind::CurrentActivity => 1,
            ProposalKind::Independent => 2,
        }
    }

    fn fold(self, h: Fnv64) -> Fnv64 {
        h.u64(self.burn_in).u64(self.thin).u64(self.proposal_tag())
    }
}

/// A fully canonical query identity. Construct via [`QueryKey::canonical`]
/// so the invariants (normalized conditions, sorted community) hold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryKey {
    /// Flow source.
    pub source: NodeId,
    /// Flow target (sink or sorted community).
    pub target: SharedTarget,
    /// Normalized (sorted, deduped, contradiction-free) conditions, each
    /// with a directed path between its endpoints.
    pub conditions: Vec<FlowCondition>,
    /// Resolved chain configuration class.
    pub config: ConfigClass,
    /// Model fingerprint the key was built against.
    pub fingerprint: u64,
    /// Shard slot the key was resolved on: `0` for the global
    /// (unsharded) engine, `s + 1` for per-shard engines. Folded into
    /// both hashes so a shard engine's entries and the global engine's
    /// entries never collide even when their models fingerprint alike
    /// (a single-shard partition IS the full model).
    pub shard: u32,
}

impl QueryKey {
    /// Canonicalizes a raw query. Fails with the condition set's
    /// [`flow_icm::query::Contradiction`] mapped to
    /// [`FlowError::GraphInconsistency`] when it can never hold (a flow
    /// both required and forbidden, a forbidden self-flow `u ~> u`, or a
    /// required flow no directed path of `icm`'s graph connects) — the
    /// planner surfaces this as a typed per-query failure *before* any
    /// sampling happens.
    ///
    /// A query without conditions resolves to [`ConfigClass::EXACT`]
    /// whatever `config` says; a conditioned one to `config`'s class.
    /// Required self-flows and forbidden flows with no path always hold
    /// and normalize away, so a query whose only conditions are such
    /// flows is an unconditioned one.
    pub fn canonical(
        source: NodeId,
        target: &SharedTarget,
        conditions: &[FlowCondition],
        config: &McmcConfig,
        icm: &Icm,
    ) -> FlowResult<Self> {
        let conditions = normalize_conditions(icm.graph(), conditions).map_err(FlowError::from)?;
        let target = match target {
            SharedTarget::Sink(s) => SharedTarget::Sink(*s),
            SharedTarget::Community(members) => {
                let mut sorted = members.clone();
                sorted.sort_by_key(|v| v.0);
                sorted.dedup();
                SharedTarget::Community(sorted)
            }
        };
        let config = if conditions.is_empty() {
            ConfigClass::EXACT
        } else {
            ConfigClass::of(config, icm.edge_count())
        };
        Ok(QueryKey {
            source,
            target,
            conditions,
            config,
            fingerprint: model_fingerprint(icm),
            shard: 0,
        })
    }

    /// The same key pinned to a shard slot (see [`QueryKey::shard`]).
    pub fn with_shard(mut self, shard: u32) -> Self {
        self.shard = shard;
        self
    }

    fn fold_common(&self, h: Fnv64) -> Fnv64 {
        let mut h = h.u64(u64::from(self.source.0)).u64(u64::from(self.shard));
        h = h.u64(self.conditions.len() as u64);
        for c in &self.conditions {
            h = h
                .u64(u64::from(c.source.0))
                .u64(u64::from(c.sink.0))
                .u64(u64::from(c.required));
        }
        self.config.fold(h).u64(self.fingerprint)
    }

    /// Full identity hash (cache index).
    pub fn hash64(&self) -> u64 {
        let mut h = self.fold_common(Fnv64::new().bytes(b"qk1"));
        h = match &self.target {
            SharedTarget::Sink(s) => h.u64(1).u64(u64::from(s.0)),
            SharedTarget::Community(members) => {
                let mut h = h.u64(2).u64(members.len() as u64);
                for v in members {
                    h = h.u64(u64::from(v.0));
                }
                h
            }
        };
        h.finish()
    }

    /// Target-independent chain identity: queries with equal chain keys
    /// ride one shared chain, and the engine derives the chain seed from
    /// this value, so a query's trajectory never depends on which batch
    /// it arrived in.
    pub fn chain_key(&self) -> u64 {
        self.fold_common(Fnv64::new().bytes(b"ck1")).finish()
    }

    /// Renders the key as one line of text (cache persistence).
    pub fn to_text(&self) -> String {
        let target = match &self.target {
            SharedTarget::Sink(s) => format!("sink:{}", s.0),
            SharedTarget::Community(members) => {
                let ids: Vec<String> = members.iter().map(|v| v.0.to_string()).collect();
                format!("comm:{}", ids.join(","))
            }
        };
        let conditions = if self.conditions.is_empty() {
            "-".to_owned()
        } else {
            self.conditions
                .iter()
                .map(|c| {
                    format!(
                        "{}>{}{}",
                        c.source.0,
                        c.sink.0,
                        if c.required { '+' } else { '-' }
                    )
                })
                .collect::<Vec<_>>()
                .join(";")
        };
        format!(
            "src={} tgt={} cond={} burn={} thin={} prop={} fp={} shard={}",
            self.source.0,
            target,
            conditions,
            self.config.burn_in,
            self.config.thin,
            self.config.proposal_tag(),
            self.fingerprint,
            self.shard,
        )
    }

    /// Parses [`QueryKey::to_text`] output.
    pub fn from_text(text: &str) -> FlowResult<Self> {
        let corrupt = |detail: String| FlowError::Checkpoint { detail };
        let mut fields: Vec<(&str, &str)> = Vec::new();
        for part in text.split_whitespace() {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| corrupt(format!("malformed key field `{part}`")))?;
            fields.push((k, v));
        }
        let get = |name: &str| -> FlowResult<&str> {
            fields
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| corrupt(format!("missing key field `{name}`")))
        };
        let parse_u64 = |name: &str, v: &str| -> FlowResult<u64> {
            v.parse::<u64>()
                .map_err(|_| corrupt(format!("bad integer in `{name}`: `{v}`")))
        };
        let parse_u32 = |name: &str, v: &str| -> FlowResult<u32> {
            v.parse::<u32>()
                .map_err(|_| corrupt(format!("bad node id in `{name}`: `{v}`")))
        };

        let source = NodeId(parse_u32("src", get("src")?)?);
        let target_text = get("tgt")?;
        let target = if let Some(s) = target_text.strip_prefix("sink:") {
            SharedTarget::Sink(NodeId(parse_u32("tgt", s)?))
        } else if let Some(list) = target_text.strip_prefix("comm:") {
            let mut members = Vec::new();
            for id in list.split(',').filter(|s| !s.is_empty()) {
                members.push(NodeId(parse_u32("tgt", id)?));
            }
            SharedTarget::Community(members)
        } else {
            return Err(corrupt(format!("bad target `{target_text}`")));
        };
        let cond_text = get("cond")?;
        let mut conditions = Vec::new();
        if cond_text != "-" {
            for c in cond_text.split(';').filter(|s| !s.is_empty()) {
                let (body, required) = if let Some(b) = c.strip_suffix('+') {
                    (b, true)
                } else if let Some(b) = c.strip_suffix('-') {
                    (b, false)
                } else {
                    return Err(corrupt(format!("bad condition `{c}`")));
                };
                let (u, v) = body
                    .split_once('>')
                    .ok_or_else(|| corrupt(format!("bad condition `{c}`")))?;
                conditions.push(FlowCondition {
                    source: NodeId(parse_u32("cond", u)?),
                    sink: NodeId(parse_u32("cond", v)?),
                    required,
                });
            }
        }
        let proposal = match parse_u64("prop", get("prop")?)? {
            0 => ProposalKind::ResultingActivity,
            1 => ProposalKind::CurrentActivity,
            2 => ProposalKind::Independent,
            other => return Err(corrupt(format!("unknown proposal tag {other}"))),
        };
        // Lenient on a missing shard field (pre-v3 keys default to the
        // global slot); the cache header version gates wholesale format
        // changes, this keeps key parsing robust in isolation.
        let shard = match fields.iter().find(|(k, _)| *k == "shard") {
            Some((_, v)) => parse_u32("shard", v)?,
            None => 0,
        };
        Ok(QueryKey {
            source,
            target,
            conditions,
            config: ConfigClass {
                burn_in: parse_u64("burn", get("burn")?)?,
                thin: parse_u64("thin", get("thin")?)?,
                proposal,
            },
            fingerprint: parse_u64("fp", get("fp")?)?,
            shard,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_graph::graph::graph_from_edges;

    fn icm() -> Icm {
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        Icm::new(g, vec![0.7, 0.4, 0.5, 0.6])
    }

    fn key(conditions: &[FlowCondition]) -> QueryKey {
        QueryKey::canonical(
            NodeId(0),
            &SharedTarget::Sink(NodeId(3)),
            conditions,
            &McmcConfig::default(),
            &icm(),
        )
        .unwrap()
    }

    #[test]
    fn permuted_and_duplicated_conditions_collide() {
        let a = key(&[
            FlowCondition::requires(NodeId(0), NodeId(1)),
            FlowCondition::forbids(NodeId(2), NodeId(3)),
        ]);
        let b = key(&[
            FlowCondition::forbids(NodeId(2), NodeId(3)),
            FlowCondition::requires(NodeId(0), NodeId(1)),
            FlowCondition::requires(NodeId(0), NodeId(1)),
        ]);
        assert_eq!(a, b);
        assert_eq!(a.hash64(), b.hash64());
        assert_eq!(a.chain_key(), b.chain_key());
    }

    #[test]
    fn contradictory_conditions_are_rejected() {
        let both = [
            FlowCondition::requires(NodeId(1), NodeId(2)),
            FlowCondition::forbids(NodeId(1), NodeId(2)),
        ];
        let forbid_self = [FlowCondition::forbids(NodeId(1), NodeId(1))];
        // No directed path runs from 3 back to 0.
        let no_path = [FlowCondition::requires(NodeId(3), NodeId(0))];
        for (conditions, why) in [
            (&both[..], "both required and forbidden"),
            (&forbid_self[..], "always reaches itself"),
            (&no_path[..], "outside the reachable subgraph"),
        ] {
            let err = QueryKey::canonical(
                NodeId(0),
                &SharedTarget::Sink(NodeId(3)),
                conditions,
                &McmcConfig::default(),
                &icm(),
            )
            .unwrap_err();
            assert!(
                matches!(&err, FlowError::GraphInconsistency { detail } if detail.contains(why)),
                "{err}"
            );
        }
    }

    #[test]
    fn conditions_that_always_hold_leave_the_unconditioned_key() {
        let plain = key(&[]);
        // A node always reaches itself; no path runs from 3 back to 1.
        for vacuous in [
            FlowCondition::requires(NodeId(1), NodeId(1)),
            FlowCondition::forbids(NodeId(3), NodeId(1)),
        ] {
            let vacuous = key(&[vacuous]);
            assert_eq!(vacuous, plain);
            assert_eq!(vacuous.hash64(), plain.hash64());
            assert_eq!(vacuous.chain_key(), plain.chain_key());
            assert_eq!(vacuous.config, ConfigClass::EXACT);
        }
    }

    #[test]
    fn chain_key_ignores_target_but_hash_does_not() {
        let model = icm();
        let cfg = McmcConfig::default();
        let a = QueryKey::canonical(NodeId(0), &SharedTarget::Sink(NodeId(3)), &[], &cfg, &model)
            .unwrap();
        let b = QueryKey::canonical(NodeId(0), &SharedTarget::Sink(NodeId(1)), &[], &cfg, &model)
            .unwrap();
        assert_eq!(a.chain_key(), b.chain_key());
        assert_ne!(a.hash64(), b.hash64());
    }

    #[test]
    fn fingerprint_tracks_probability_bits() {
        let g1 = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let g2 = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let a = Icm::new(g1, vec![0.5, 0.5]);
        let b = Icm::new(g2, vec![0.5, 0.5000000001]);
        assert_ne!(model_fingerprint(&a), model_fingerprint(&b));
    }

    #[test]
    fn key_text_round_trips() {
        let model = icm();
        let cfg = McmcConfig::default();
        let keys = [
            key(&[FlowCondition::requires(NodeId(0), NodeId(1))]),
            key(&[]),
            QueryKey::canonical(
                NodeId(1),
                &SharedTarget::Community(vec![NodeId(3), NodeId(2), NodeId(2)]),
                &[FlowCondition::forbids(NodeId(0), NodeId(2))],
                &cfg,
                &model,
            )
            .unwrap(),
        ];
        for k in &keys {
            let parsed = QueryKey::from_text(&k.to_text()).unwrap();
            assert_eq!(&parsed, k);
            assert_eq!(parsed.hash64(), k.hash64());
        }
        assert!(keys[1].to_text().contains(" burn=0 thin=1 prop=2 "));
        assert!(QueryKey::from_text("src=0 tgt=bogus").is_err());
    }

    #[test]
    fn shard_slot_separates_identities_and_round_trips() {
        let base = key(&[]);
        let sharded = base.clone().with_shard(3);
        assert_ne!(base.hash64(), sharded.hash64());
        assert_ne!(base.chain_key(), sharded.chain_key());
        let parsed = QueryKey::from_text(&sharded.to_text()).unwrap();
        assert_eq!(parsed, sharded);
        assert_eq!(parsed.shard, 3);
        // Pre-v3 text without the field defaults to the global slot.
        let legacy =
            QueryKey::from_text("src=0 tgt=sink:3 cond=- burn=8 thin=4 prop=0 fp=77").unwrap();
        assert_eq!(legacy.shard, 0);
    }

    #[test]
    fn unconditioned_keys_take_exact_draws_and_conditioned_keep_the_config() {
        let model = icm();
        let requires = [FlowCondition::requires(NodeId(0), NodeId(1))];
        let forbids = [FlowCondition::forbids(NodeId(0), NodeId(2))];
        let custom = McmcConfig {
            burn_in: Some(7),
            thin: Some(3),
            proposal: ProposalKind::CurrentActivity,
            ..McmcConfig::default()
        };
        for cfg in [McmcConfig::default(), custom] {
            let class = |conditions: &[FlowCondition]| {
                let target = SharedTarget::Sink(NodeId(3));
                QueryKey::canonical(NodeId(0), &target, conditions, &cfg, &model)
                    .unwrap()
                    .config
            };
            let exact = ConfigClass {
                burn_in: 0,
                thin: 1,
                proposal: ProposalKind::Independent,
            };
            assert_eq!(class(&[]), exact);
            let configured = ConfigClass::of(&cfg, model.edge_count());
            assert_eq!(class(&requires), configured);
            assert_eq!(class(&forbids), configured);
        }
    }

    #[test]
    fn community_members_are_sorted_and_deduped() {
        let model = icm();
        let k = QueryKey::canonical(
            NodeId(0),
            &SharedTarget::Community(vec![NodeId(3), NodeId(1), NodeId(3)]),
            &[],
            &McmcConfig::default(),
            &model,
        )
        .unwrap();
        assert_eq!(
            k.target,
            SharedTarget::Community(vec![NodeId(1), NodeId(3)])
        );
    }
}
