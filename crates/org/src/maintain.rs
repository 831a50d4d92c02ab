//! Crash-safe incremental organization maintenance under ingest churn.
//!
//! A [`Maintainer`] keeps a served organization aligned with a *moving*
//! lake: tables arrive, disappear and get retagged while navigation
//! sessions are live. This module holds its configuration, its change log
//! and its planning; the epoch-committed cycle that carries a plan out is
//! in `crate::cycle`.
//!
//! 1. **Ingest** — CDC events ([`ChangeEvent`]) are durably appended to
//!    the [`ChangeLog`] (`dln-lake`); the ack is the returned sequence
//!    number (*ack-after-durable*). A torn append (`churn.log_torn`)
//!    acknowledges nothing and the tail is discarded on recovery.
//! 2. **Plan** — the maintainer replays the log onto the seed lake (a
//!    pure fold) and derives the next shard assignment: surviving labels
//!    stay put, labels whose tag left the lake are dropped, new labels are
//!    admitted into the nearest shard by topic-centroid cosine, and a
//!    label whose centroid affinity drifted past
//!    [`MaintConfig::rebalance_drift`] is moved across shards. The plan —
//!    log horizon `to_seq`, full next assignment, affected shard set,
//!    cross-shard moves, derived seed, pre-cycle fingerprint — is a pure
//!    function of (change log, organization), committed before any
//!    mutation (`churn.crash_mid_plan`).
//! 3. **Apply** — the served organization is cloned and rebased onto the
//!    new tag universe ([`Organization::rebase_universe`]: slot-
//!    preserving, removed tag states tombstoned, new ones appended); a
//!    rebalance donor that keeps ≥ 2 labels is handled by pure edge
//!    surgery ([`Organization::shed_tag_from_subtree`]) —
//!    `churn.crash_mid_apply` fires here. The engine then rebuilds only
//!    the *affected* shards (`churn.search_kill` between slices); routing-
//!    tier tag sets and attribute memberships are recomputed last, and the
//!    whole organization is validated (`churn.crash_mid_publish` before
//!    staging).
//! 4. **Publish** — the stage carries the post-churn lake catalog, its
//!    context and the changed-slot set, so the serving layer republishes it
//!    shard-scoped. [`Maintainer::mark_published`] then advances
//!    `applied_seq`, adopts the new assignment and the stage's lake, and
//!    compacts the change log.
//!
//! Every lake the maintainer holds — the borrowed seed, the replayed
//! `lake`, a cycle's post-churn lake — is a values-free catalog: raw
//! values live in the value store beside the lake, which maintenance never sees.
//!
//! The invariant, enforced by `tests/churn_chaos.rs`: for any failpoint
//! schedule, a killed maintainer restarted from its durable directory
//! converges to the bit-identical organization of an uninterrupted run,
//! and no change event is ever lost or applied twice.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use dln_fault::{DlnError, DlnResult};
use dln_lake::{replay, ChangeEvent, ChangeLog, DataLake};

use crate::ctx::OrgContext;
use crate::cycle::{derive_cycle_seed, PlanState, PlannedMove, State, EMPTY_SHARD, STATE_FILE};
use crate::graph::{Organization, StateId};
use crate::search::SearchConfig;
use crate::shard::ShardedBuild;

/// Environment variable `var` parsed, or `None` when unset or malformed.
fn env_var<T: FromStr>(var: &str) -> Option<T> {
    std::env::var(var).ok()?.trim().parse().ok()
}

/// Configuration of a [`Maintainer`].
#[derive(Clone, Debug)]
pub struct MaintConfig {
    /// Directory for all durable maintenance artifacts (state file,
    /// per-shard search checkpoints, and — unless `DLN_CDC_PATH`
    /// overrides it — the CDC change log). Created if missing.
    pub dir: PathBuf,
    /// Base search configuration for the per-shard incremental searches.
    /// `seed` is re-derived per (cycle, shard) and `shards` /
    /// `checkpoint` / `deadline` are overridden per slice.
    pub search: SearchConfig,
    /// Wall-clock budget per search slice; between slices the maintainer
    /// checks `churn.search_kill` and resumes from the shard's
    /// checkpoint. `None` runs each shard search to completion in one
    /// slice. Defaults to the `DLN_CHURN_DEADLINE_MS` environment
    /// variable.
    pub slice: Option<Duration>,
    /// Rounds between periodic search checkpoints.
    pub ckpt_every: usize,
    /// Minimum centroid-cosine improvement before a label is moved to
    /// another shard. Defaults to the `DLN_REBALANCE_DRIFT` environment
    /// variable, else `0.05`.
    pub rebalance_drift: f64,
    /// Suggested cadence for driver loops, in ingested events per cycle
    /// (default 16). The maintainer never reads it.
    pub every: u64,
    /// Base path of the CDC change log (snapshot at `<path>`, WAL at
    /// `<path>.wal`). Defaults to `<dir>/cdc`, overridden by the
    /// `DLN_CDC_PATH` environment variable.
    pub cdc_path: Option<PathBuf>,
}

impl MaintConfig {
    /// A configuration rooted at `dir`, with the `DLN_CHURN_DEADLINE_MS`,
    /// `DLN_REBALANCE_DRIFT` and `DLN_CDC_PATH` environment overrides
    /// applied.
    pub fn new(dir: impl Into<PathBuf>) -> MaintConfig {
        MaintConfig {
            dir: dir.into(),
            search: SearchConfig::default(),
            slice: env_var::<u64>("DLN_CHURN_DEADLINE_MS")
                .filter(|&ms| ms > 0)
                .map(Duration::from_millis),
            ckpt_every: 8,
            rebalance_drift: env_var::<f64>("DLN_REBALANCE_DRIFT")
                .filter(|d| d.is_finite())
                .unwrap_or(0.05),
            every: 16,
            cdc_path: std::env::var_os("DLN_CDC_PATH").map(PathBuf::from),
        }
    }
}

/// The crash-safe incremental maintainer. It exclusively owns the change
/// log; producers ingest through [`Maintainer::ingest`] and treat the
/// returned sequence number as the durable ack. All durable state lives
/// under [`MaintConfig::dir`], so "restart after a crash" is just
/// constructing a new `Maintainer` over the same directory. The cycle
/// engine itself (`advance`, `mark_published`) is in `crate::cycle`.
pub struct Maintainer<'a> {
    pub(crate) seed_lake: &'a DataLake,
    pub(crate) cfg: MaintConfig,
    pub(crate) log: ChangeLog,
    /// `replay(seed_lake, events ≤ applied_seq)` — the lake the served
    /// organization is built over.
    pub(crate) lake: DataLake,
    pub(crate) state: State,
}

impl<'a> Maintainer<'a> {
    /// Open (or create) a maintainer over `cfg.dir`. `shard_labels` /
    /// `shard_roots` describe the served organization's router layout; a
    /// durable state file from a previous incarnation overrides both (it
    /// tracks committed cycles).
    pub fn open(
        seed_lake: &'a DataLake,
        shard_labels: Vec<Vec<String>>,
        shard_roots: Vec<StateId>,
        cfg: MaintConfig,
    ) -> DlnResult<Maintainer<'a>> {
        if shard_labels.len() != shard_roots.len() {
            return Err(DlnError::InvalidConfig(format!(
                "shard map mismatch: {} label groups vs {} roots",
                shard_labels.len(),
                shard_roots.len()
            )));
        }
        if shard_roots.is_empty() {
            return Err(DlnError::InvalidConfig(
                "maintenance requires at least one shard".to_string(),
            ));
        }
        let cdc_base = cfg.cdc_path.clone().unwrap_or_else(|| cfg.dir.join("cdc"));
        let log = ChangeLog::open(&cdc_base)?;
        let state = State::open(&cfg.dir, shard_labels, shard_roots)?;
        if state.applied_seq > log.last_seq() {
            return Err(DlnError::corrupt(
                cfg.dir.join(STATE_FILE).display().to_string(),
                format!(
                    "maintainer state is ahead of the change log ({} > {})",
                    state.applied_seq,
                    log.last_seq()
                ),
            ));
        }
        let lake = replay(seed_lake, log.state().events_through(state.applied_seq)).0;
        Ok(Maintainer {
            seed_lake,
            cfg,
            log,
            lake,
            state,
        })
    }

    /// Convenience constructor from a [`ShardedBuild`] over `seed_lake`.
    pub fn for_build(
        seed_lake: &'a DataLake,
        build: &ShardedBuild,
        cfg: MaintConfig,
    ) -> DlnResult<Maintainer<'a>> {
        let labels = build
            .shard_tags
            .iter()
            .map(|tags| {
                tags.iter()
                    .map(|&t| seed_lake.tag(t).label.clone())
                    .collect()
            })
            .collect();
        Maintainer::open(seed_lake, labels, build.shard_roots.clone(), cfg)
    }

    /// Durably append a change event. The returned sequence number is the
    /// ack: on error (torn append) nothing was acknowledged and the event
    /// must be re-ingested.
    pub fn ingest(&mut self, event: &ChangeEvent) -> DlnResult<u64> {
        self.log.append(event)
    }

    /// Events ingested but not yet folded into a committed cycle.
    pub fn pending(&self) -> u64 {
        self.log.last_seq().saturating_sub(self.state.applied_seq)
    }

    /// The lake the served organization is built over:
    /// `replay(seed, events ≤ applied_seq)`.
    pub fn lake(&self) -> &DataLake {
        &self.lake
    }

    /// Last change-log sequence number folded into the served lake.
    pub fn applied_seq(&self) -> u64 {
        self.state.applied_seq
    }

    /// Current shard→labels assignment.
    pub fn shard_labels(&self) -> &[Vec<String>] {
        &self.state.shard_labels
    }

    /// Malformed-but-checksummed events quarantined by the change log.
    pub fn quarantined(&self) -> u64 {
        self.log.quarantined()
    }

    /// The configuration this maintainer runs under.
    pub fn config(&self) -> &MaintConfig {
        &self.cfg
    }

    /// Plan the next cycle: replay the log to its durable horizon, keep
    /// surviving labels in place, admit new labels into the nearest shard
    /// by topic-centroid cosine, move drifted labels, and mark every
    /// shard whose label set or label populations changed as affected.
    /// Pure function of (change log, shard assignment) — a replanned
    /// crash reproduces the identical plan.
    pub(crate) fn plan(&self, org: &Organization) -> DlnResult<Option<PlanState>> {
        let to_seq = self.log.last_seq();
        let has_events = to_seq > self.state.applied_seq;
        let (lake_next, _) = replay(self.seed_lake, self.log.state().events_through(to_seq));
        let n_shards = self.state.shard_labels.len();

        // Labels whose population (set of attributes, identified by
        // table/attr name) changed, plus labels on one side only.
        let changed_labels = diff_labels(&self.lake, &lake_next);

        // Surviving assignment (original order preserved per shard).
        let mut labels_next: Vec<Vec<String>> = Vec::with_capacity(n_shards);
        let mut removed_any = vec![false; n_shards];
        for (i, labels) in self.state.shard_labels.iter().enumerate() {
            let survivors: Vec<String> = labels
                .iter()
                .filter(|l| lake_next.tag_by_label(l).is_some())
                .cloned()
                .collect();
            removed_any[i] = survivors.len() != labels.len();
            labels_next.push(survivors);
        }

        // Shard centroids over the *surviving* pre-move assignment, in
        // the new lake's topic space.
        let dim = lake_next.dim();
        let centroids: Vec<Option<Vec<f64>>> = labels_next
            .iter()
            .map(|labels| {
                if labels.is_empty() {
                    return None;
                }
                let mut c = vec![0.0f64; dim];
                for l in labels {
                    if let Some(t) = lake_next.tag_by_label(l) {
                        for (ci, &v) in c.iter_mut().zip(&lake_next.tag(t).unit_topic) {
                            *ci += v as f64;
                        }
                    }
                }
                Some(c)
            })
            .collect();
        let affinity = |label: &str, shard: usize| -> Option<f64> {
            let c = centroids[shard].as_ref()?;
            let t = lake_next.tag_by_label(label)?;
            let u = &lake_next.tag(t).unit_topic;
            let mut dot = 0.0f64;
            let mut norm = 0.0f64;
            for (&ci, &ui) in c.iter().zip(u) {
                dot += ci * ui as f64;
                norm += ci * ci;
            }
            if norm == 0.0 {
                return Some(0.0);
            }
            Some(dot / norm.sqrt())
        };

        // New labels (in lake order, for determinism) go to the nearest
        // non-empty shard.
        let assigned: HashSet<&str> = labels_next.iter().flatten().map(|l| l.as_str()).collect();
        let mut gained = vec![false; n_shards];
        let mut admissions: Vec<(String, usize)> = Vec::new();
        for tag in lake_next.tags() {
            if assigned.contains(tag.label.as_str()) {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for s in 0..n_shards {
                let Some(a) = affinity(&tag.label, s) else {
                    continue;
                };
                if best.is_none_or(|(_, b)| a > b) {
                    best = Some((s, a));
                }
            }
            let Some((s, _)) = best else {
                return Err(DlnError::InvalidConfig(format!(
                    "no shard can admit new label {:?} (all shards empty)",
                    tag.label
                )));
            };
            admissions.push((tag.label.clone(), s));
            gained[s] = true;
        }

        // Rebalance: a surviving label whose *population changed this
        // cycle* and whose affinity to another shard now exceeds its home
        // affinity by more than the drift threshold moves there. Only
        // changed labels are candidates — the fresh layout is the
        // clusterer's call, and relitigating it on every quiet cycle
        // would thrash shards without new evidence. Affinities use the
        // pre-move centroids, so the decision is order-independent.
        let mut moves: Vec<PlannedMove> = Vec::new();
        if n_shards > 1 {
            for (s, labels) in labels_next.clone().iter().enumerate() {
                for l in labels {
                    if !changed_labels.contains(l) {
                        continue;
                    }
                    let Some(home) = affinity(l, s) else { continue };
                    let mut best: Option<(usize, f64)> = None;
                    for o in 0..n_shards {
                        if o == s {
                            continue;
                        }
                        let Some(a) = affinity(l, o) else { continue };
                        if best.is_none_or(|(_, b)| a > b) {
                            best = Some((o, a));
                        }
                    }
                    if let Some((o, a)) = best {
                        if a - home > self.cfg.rebalance_drift {
                            moves.push(PlannedMove {
                                label: l.clone(),
                                from: s as u32,
                                to: o as u32,
                            });
                            gained[o] = true;
                        }
                    }
                }
            }
        }
        if !has_events && moves.is_empty() {
            return Ok(None);
        }

        // Apply admissions and moves to the assignment.
        for m in &moves {
            labels_next[m.from as usize].retain(|l| l != &m.label);
        }
        for m in &moves {
            labels_next[m.to as usize].push(m.label.clone());
        }
        for (label, s) in admissions {
            labels_next[s].push(label);
        }

        // Affected shards: lost a label to the lake, gained any label, or
        // kept a label whose population changed. A move donor that would
        // be left too thin for pure edge surgery is affected too.
        let mut affected = vec![false; n_shards];
        for s in 0..n_shards {
            if removed_any[s] || gained[s] {
                affected[s] = true;
                continue;
            }
            if labels_next[s].iter().any(|l| changed_labels.contains(l)) {
                affected[s] = true;
            }
        }
        for m in &moves {
            if labels_next[m.from as usize].len() < 2 {
                affected[m.from as usize] = true;
            }
        }
        let affected: Vec<u32> = (0..n_shards as u32)
            .filter(|&s| affected[s as usize])
            .collect();

        Ok(Some(PlanState {
            to_seq,
            seed: derive_cycle_seed(self.cfg.search.seed, self.state.cycle, 0x0063_6875_726e)
                ^ self.state.cycle,
            pre_fp: org.fingerprint(),
            shard_labels: labels_next,
            affected,
            moves,
        }))
    }

    /// Rebase `out` (a clone of the served organization over `ctx`) onto
    /// the post-churn lake and shed moved labels from donors that keep
    /// enough labels for pure edge surgery, recording changed slots; every
    /// affected shard is rebuilt by the cycle engine. Returns the
    /// post-churn lake and its full context.
    pub(crate) fn rebase(
        &self,
        plan: &PlanState,
        ctx: &OrgContext,
        out: &mut Organization,
        changed: &mut Vec<u32>,
    ) -> DlnResult<(DataLake, OrgContext)> {
        // Deterministic recomputation of the post-churn lake and context.
        let (lake_next, _) = replay(self.seed_lake, self.log.state().events_through(plan.to_seq));
        if lake_next.n_tags() == 0 {
            return Err(DlnError::InvalidConfig(
                "churn removed every tag; refusing to maintain an empty organization".to_string(),
            ));
        }
        let ctx_next = OrgContext::full(&lake_next);
        let mut label_to_new: HashMap<&str, u32> = HashMap::with_capacity(ctx_next.n_tags());
        for (i, t) in ctx_next.tags().iter().enumerate() {
            label_to_new.insert(t.label.as_str(), i as u32);
        }
        let tag_map: Vec<Option<u32>> = ctx
            .tags()
            .iter()
            .map(|t| label_to_new.get(t.label.as_str()).copied())
            .collect();
        let report = out.rebase_universe(&ctx_next, &tag_map);
        changed.extend(&report.removed_tag_slots);
        changed.extend(&report.added_tag_slots);

        // Cheap-donor rebalance: pure edge surgery on donors that keep
        // enough labels to stay structurally sound.
        for m in &plan.moves {
            if plan.affected.contains(&m.from) {
                continue; // donor is rebuilt anyway
            }
            let Some(&t_new) = label_to_new.get(m.label.as_str()) else {
                return Err(DlnError::corrupt(
                    "maintain",
                    format!("moved label {:?} missing from the new lake", m.label),
                ));
            };
            let donor_root = self.state.shard_roots[m.from as usize];
            if donor_root == EMPTY_SHARD {
                return Err(DlnError::corrupt(
                    "maintain",
                    format!("move {:?} out of an empty shard {}", m.label, m.from),
                ));
            }
            changed.extend(out.shed_tag_from_subtree(donor_root, t_new));
        }
        Ok((lake_next, ctx_next))
    }
}

/// Labels whose attribute population differs between the two lakes
/// (including labels present in only one). Populations are compared by
/// (table name, attribute name) pairs — id-independent, so replayed lakes
/// compare meaningfully against their predecessors.
fn diff_labels(cur: &DataLake, next: &DataLake) -> HashSet<String> {
    fn pop<'l>(lake: &'l DataLake, label: &str) -> Option<Vec<(&'l str, &'l str)>> {
        let t = lake.tag_by_label(label)?;
        let mut pairs: Vec<(&str, &str)> = lake
            .tag(t)
            .attrs
            .iter()
            .map(|&a| {
                let attr = lake.attr(a);
                (lake.table(attr.table).name.as_str(), attr.name.as_str())
            })
            .collect();
        pairs.sort_unstable();
        Some(pairs)
    }
    let labels: HashSet<&str> = cur
        .tags()
        .iter()
        .chain(next.tags())
        .map(|t| t.label.as_str())
        .collect();
    labels
        .into_iter()
        .filter(|l| pop(cur, l) != pop(next, l))
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::Advance;
    use crate::search::ShardPolicy;
    use crate::shard::build_sharded;
    use dln_lake::{AttrChange, LakeBuilder};
    use dln_synth::TagCloudConfig;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dln-maint-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_setup() -> (DataLake, SearchConfig) {
        let bench = TagCloudConfig::small().generate();
        let cfg = SearchConfig {
            max_iters: 40,
            plateau_iters: 15,
            shards: ShardPolicy::Fixed(2),
            ..SearchConfig::default()
        };
        (bench.lake, cfg)
    }

    fn maint_cfg(dir: PathBuf, search: SearchConfig) -> MaintConfig {
        MaintConfig {
            dir,
            search,
            slice: None,
            ckpt_every: 4,
            rebalance_drift: 0.05,
            every: 16,
            cdc_path: None,
        }
    }

    /// A topic vector concentrated on axis `axis` with a small nudge.
    fn topic(dim: usize, axis: usize, nudge: f32) -> dln_embed::TopicAccumulator {
        let mut v = vec![0.05f32; dim];
        v[axis] = 1.0 + nudge;
        let mut acc = dln_embed::TopicAccumulator::new(dim);
        acc.add(&v);
        acc
    }

    fn added(name: &str, tags: &[&str], axis: usize, nudge: f32) -> ChangeEvent {
        ChangeEvent::TableAdded {
            name: name.to_string(),
            tags: tags.iter().map(|s| s.to_string()).collect(),
            attrs: vec![AttrChange {
                name: "col0".to_string(),
                topic: topic(4, axis, nudge),
                n_values: 8,
                tags: Vec::new(),
            }],
        }
    }

    #[test]
    fn skipped_when_no_events_and_no_drift() {
        let (lake, scfg) = small_setup();
        let build = build_sharded(&lake, &scfg);
        let dir = tmp("skip");
        let mut maint = Maintainer::for_build(&lake, &build, maint_cfg(dir, scfg.clone())).unwrap();
        let ctx = OrgContext::full(&lake);
        assert!(matches!(
            maint.advance(&ctx, &build.built.organization).unwrap(),
            Advance::Skipped
        ));
        assert_eq!(maint.pending(), 0);
    }

    #[test]
    fn add_and_remove_cycle_maintains_a_valid_org() {
        let (lake, scfg) = small_setup();
        let build = build_sharded(&lake, &scfg);
        let ctx = OrgContext::full(&lake);
        let dir = tmp("cycle");
        let mut maint = Maintainer::for_build(&lake, &build, maint_cfg(dir, scfg.clone())).unwrap();

        // A new table under a brand-new label plus an existing one.
        let existing = lake.tags()[0].label.clone();
        let dim = lake.dim();
        let ev = ChangeEvent::TableAdded {
            name: "churn_t0".to_string(),
            tags: vec!["churn_new_tag".to_string(), existing.clone()],
            attrs: vec![AttrChange {
                name: "c0".to_string(),
                topic: topic(dim, 0, 0.2),
                n_values: 6,
                tags: Vec::new(),
            }],
        };
        assert_eq!(maint.ingest(&ev).unwrap(), 1);
        assert_eq!(maint.pending(), 1);

        let Advance::Staged(stage) = maint.advance(&ctx, &build.built.organization).unwrap() else {
            panic!("expected staged cycle");
        };
        assert_eq!(stage.applied_events, 1);
        stage.org.validate(&stage.ctx).unwrap();
        assert!(stage.ctx.n_tags() == ctx.n_tags() + 1);
        let roots = stage.shard_roots.clone();
        maint.mark_published(&roots, stage.lake).unwrap();
        assert_eq!(maint.applied_seq(), 1);
        assert_eq!(maint.pending(), 0);
        assert!(maint.lake().tag_by_label("churn_new_tag").is_some());

        // Remove the table again: the brand-new label leaves the lake.
        let org1 = stage.org;
        let ctx1 = stage.ctx;
        maint
            .ingest(&ChangeEvent::TableRemoved {
                name: "churn_t0".to_string(),
            })
            .unwrap();
        let Advance::Staged(stage2) = maint.advance(&ctx1, &org1).unwrap() else {
            panic!("expected staged cycle");
        };
        stage2.org.validate(&stage2.ctx).unwrap();
        assert_eq!(stage2.ctx.n_tags(), ctx.n_tags());
        let roots2 = stage2.shard_roots.clone();
        maint.mark_published(&roots2, stage2.lake).unwrap();
        assert!(maint.lake().tag_by_label("churn_new_tag").is_none());
    }

    /// Every field of `lake` (floats print exactly under `Debug`), with
    /// each attribute's tags.
    fn catalog_image(lake: &DataLake) -> String {
        let attr_tags: Vec<_> = lake.attr_ids().map(|a| lake.attr_tags(a)).collect();
        format!(
            "{:?}\n{:?}\n{:?}\n{attr_tags:?}",
            lake.tables(),
            lake.attrs(),
            lake.tags()
        )
    }

    #[test]
    fn published_lake_is_the_lake_a_restart_replays() {
        let (lake, scfg) = small_setup();
        let build = build_sharded(&lake, &scfg);
        let dir = tmp("adopt");
        let open = || Maintainer::for_build(&lake, &build, maint_cfg(dir.clone(), scfg.clone()));
        let mut maint = open().unwrap();
        let (mut ctx, mut org) = (OrgContext::full(&lake), build.built.organization.clone());
        let tables = lake.tables();
        let add = |name: &str, tags: &[&str], axis: usize| ChangeEvent::TableAdded {
            name: name.to_string(),
            tags: tags.iter().map(|s| s.to_string()).collect(),
            attrs: vec![AttrChange {
                name: "c0".to_string(),
                topic: topic(lake.dim(), axis, 0.2),
                n_values: 6,
                tags: Vec::new(),
            }],
        };
        let batches = vec![
            vec![
                add("churn_a0", &["churn_z", &lake.tags()[3].label], 0),
                ChangeEvent::TableRetagged {
                    name: tables[1].name.clone(),
                    tags: vec![lake.tags()[5].label.clone(), "churn_b".to_string()],
                },
                ChangeEvent::TableRemoved {
                    name: tables[2].name.clone(),
                },
            ],
            vec![
                ChangeEvent::TableRemoved {
                    name: "churn_a0".to_string(),
                },
                add("churn_a1", &["churn_b"], 1),
            ],
        ];
        for events in &batches {
            for ev in events {
                maint.ingest(ev).unwrap();
            }
            let Advance::Staged(stage) = maint.advance(&ctx, &org).unwrap() else {
                panic!("expected staged cycle");
            };
            let want = catalog_image(&stage.lake);
            maint
                .mark_published(&stage.shard_roots, stage.lake)
                .unwrap();
            assert_eq!(catalog_image(maint.lake()), want);
            let restarted = open().unwrap();
            assert_eq!(restarted.applied_seq(), maint.applied_seq());
            assert_eq!(
                catalog_image(restarted.lake()),
                catalog_image(maint.lake()),
                "tag order, attribute order, topic bits and n_values"
            );
            (ctx, org) = (stage.ctx, stage.org);
        }
        assert!(maint.lake().tag_by_label("churn_z").is_none());
        assert!(maint.lake().tag_by_label("churn_b").is_some());
    }

    #[test]
    fn restart_from_plan_converges_bit_identically() {
        let (lake, scfg) = small_setup();
        let build = build_sharded(&lake, &scfg);
        let ctx = OrgContext::full(&lake);
        let dir = tmp("restart");
        let ev = added("churn_r0", &["churn_r_tag"], 0, 0.3);

        // Uninterrupted run in a sibling directory.
        let dir_ref = tmp("restart-ref");
        let mut a = Maintainer::for_build(&lake, &build, maint_cfg(dir_ref, scfg.clone())).unwrap();
        a.ingest(&ev).unwrap();
        let Advance::Staged(want) = a.advance(&ctx, &build.built.organization).unwrap() else {
            panic!("expected staged cycle");
        };

        // Crash right after the plan commit, then restart and finish.
        let mut b =
            Maintainer::for_build(&lake, &build, maint_cfg(dir.clone(), scfg.clone())).unwrap();
        b.ingest(&ev).unwrap();
        {
            let _fp = dln_fault::scoped("churn.crash_mid_plan:1.0:0");
            assert!(b.advance(&ctx, &build.built.organization).is_err());
        }
        drop(b);
        let mut b2 = Maintainer::for_build(&lake, &build, maint_cfg(dir, scfg)).unwrap();
        assert!(b2.in_flight());
        let Advance::Staged(got) = b2.advance(&ctx, &build.built.organization).unwrap() else {
            panic!("expected staged cycle");
        };
        assert_eq!(got.org.fingerprint(), want.org.fingerprint());
        assert_eq!(got.changed, want.changed);
        assert_eq!(got.shard_roots, want.shard_roots);
    }

    #[test]
    fn drifted_label_moves_with_cheap_donor_shed() {
        // Hand-built lake: shard-split topics on axes 0 and 1. Labels
        // a0/a1/drift sit on axis 0; b0/b1 on axis 1. Churn replaces
        // drift's only table with an axis-1 table, so its topic crosses
        // the centroid gap and the planner must move it — donor keeps
        // two labels, so the move is pure edge surgery on the donor.
        let dim = 4;
        let mut lb = LakeBuilder::new(dim);
        let mut add_table = |name: &str, label: &str, axis: usize, nudge: f32| {
            let tid = lb.begin_table(name);
            lb.add_tag(tid, label);
            lb.try_add_attribute_raw(tid, "c0", topic(dim, axis, nudge), 8)
                .unwrap();
        };
        add_table("ta0", "a0", 0, 0.00);
        add_table("ta1", "a1", 0, 0.05);
        add_table("tdrift", "drift", 0, 0.10);
        add_table("tb0", "b0", 1, 0.00);
        add_table("tb1", "b1", 1, 0.05);
        let lake = lb.build();
        let scfg = SearchConfig {
            max_iters: 40,
            plateau_iters: 15,
            shards: ShardPolicy::Fixed(2),
            ..SearchConfig::default()
        };
        let build = build_sharded(&lake, &scfg);
        // The clustering split must put drift with the a-labels.
        let drift_shard = build
            .shard_tags
            .iter()
            .position(|tags| tags.iter().any(|&t| lake.tag(t).label == "drift"))
            .unwrap();
        let a0_shard = build
            .shard_tags
            .iter()
            .position(|tags| tags.iter().any(|&t| lake.tag(t).label == "a0"))
            .unwrap();
        assert_eq!(
            drift_shard, a0_shard,
            "seed layout puts drift with a-labels"
        );

        let ctx = OrgContext::full(&lake);
        let dir = tmp("drift");
        let mut maint = Maintainer::for_build(&lake, &build, maint_cfg(dir, scfg.clone())).unwrap();
        maint
            .ingest(&ChangeEvent::TableRemoved {
                name: "tdrift".to_string(),
            })
            .unwrap();
        maint
            .ingest(&added("tdrift2", &["drift"], 1, 0.10))
            .unwrap();

        let Advance::Staged(stage) = maint.advance(&ctx, &build.built.organization).unwrap() else {
            panic!("expected staged cycle");
        };
        stage.org.validate(&stage.ctx).unwrap();
        // Donor was not re-searched: only the receiver shard was.
        assert_eq!(stage.search_stats.len(), 1);
        let roots = stage.shard_roots.clone();
        maint.mark_published(&roots, stage.lake).unwrap();
        let donor = drift_shard;
        let receiver = 1 - donor;
        assert!(
            !maint.shard_labels()[donor].iter().any(|l| l == "drift"),
            "drift left the donor shard: {:?}",
            maint.shard_labels()
        );
        assert!(
            maint.shard_labels()[receiver].iter().any(|l| l == "drift"),
            "drift joined the receiver shard: {:?}",
            maint.shard_labels()
        );
    }
}
