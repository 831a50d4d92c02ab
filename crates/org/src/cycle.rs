//! The epoch-committed cycle engine behind both background loops:
//! feedback re-optimization ([`Reoptimizer`](crate::Reoptimizer), §2.4 of
//! the paper) and churn maintenance ([`Maintainer`](crate::Maintainer)).
//!
//! A cycle re-runs the paper's local search on the tag groups of a few
//! shards and publishes the graft as a shard epoch. A [`Planner`] decides
//! *which* shards over *which* tags; the [`Cycle`] engine owns everything
//! else, once for both:
//!
//! 1. **Plan commit** — an idle engine asks its planner for a plan (a pure
//!    function of the planner's durable log and the served organization)
//!    and commits it to the state file before any mutation, so a crashed
//!    cycle resumes the identical plan.
//! 2. **Fingerprint check** — every advance verifies that the served
//!    organization still carries the plan's pre-cycle fingerprint.
//! 3. **Apply** — the planner prepares a clone of the organization (the
//!    maintainer rebases it onto the post-churn lake), then each planned
//!    shard's subtree is stripped, re-searched in deadline-bounded,
//!    checkpointed slices, grafted back and re-linked under its junction
//!    parents. The result is validated and staged ([`Advance::Staged`]).
//! 4. **Publish** — the caller publishes the stage as a shard-scoped
//!    republish, then calls [`Cycle::mark_published`]: one atomic state
//!    write commits the new shard roots, the planner compacts its log and
//!    the search checkpoints are dropped.
//!
//! State file (`<dir>/<Planner::STATE_FILE>`, published with
//! [`dln_persist::atomic_write`]): a sealed record of `[magic:8]
//! [version:u8][cycle:u64][planner head][n_roots:u64][roots:u32…]` and a
//! plan flag byte, followed by the planner's plan when it is 1.
//!
//! Every phase boundary is a crash point whose failpoint name the planner
//! supplies ([`Sites`]); errors are crashes, and a new engine over the same
//! directory continues bit-identically.

use std::borrow::Cow;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;

use dln_fault::{DlnError, DlnResult};
use dln_lake::{DataLake, TagId};
use dln_persist::{self as persist, Reader, Writer};

use crate::bitset::BitSet;
use crate::checkpoint::{Checkpoint, CheckpointConfig};
use crate::ctx::OrgContext;
use crate::graph::{Organization, StateId};
use crate::init;
use crate::search::{self, SearchConfig, SearchStats, ShardPolicy, StopReason};

/// State file format version (both planners).
const STATE_VERSION: u8 = 1;

/// Root marker of a shard whose last label left the lake. The slot id is
/// never a valid state (organizations are far smaller than `u32::MAX`).
pub const EMPTY_SHARD: StateId = StateId(u32::MAX);

/// Where a cycle engine is in its state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CyclePhase {
    /// No cycle in flight; the next advance plans one.
    Idle,
    /// A plan is durably committed; the next advance (re)runs the
    /// checkpointed shard searches and stages the graft.
    Searching,
}

/// What one [`Cycle::advance`] produced.
pub enum Advance {
    /// Nothing to do: no new evidence or events, or no shard to re-search.
    Skipped,
    /// A cycle is staged; the caller must publish it and then call
    /// [`Cycle::mark_published`] with its `shard_roots`.
    Staged(Box<CycleStage>),
}

/// A staged shard-scoped republish.
pub struct CycleStage {
    /// The post-cycle context when the cycle changed the tag universe
    /// (maintenance); `None` keeps the served context.
    pub ctx: Option<OrgContext>,
    /// The organization with the planned shards grafted in.
    pub org: Organization,
    /// Sorted changed slots (tombstones ∪ appended or re-linked states;
    /// junctions excluded) — the shard-republish scope, so sessions on
    /// untouched shards ride in place.
    pub changed: Vec<u32>,
    /// The shards whose subtree was replaced, in plan order.
    pub shards: Vec<usize>,
    /// Every shard root in `org` ([`EMPTY_SHARD`] for emptied shards);
    /// pass back to [`Cycle::mark_published`].
    pub shard_roots: Vec<StateId>,
    /// Change events folded in by this cycle (0 for re-optimization).
    pub applied_events: u64,
    /// Statistics of the shard searches, in plan order (shards rebuilt
    /// without a search have none).
    pub search_stats: Vec<SearchStats>,
}

/// Failpoint names of the engine's phase sites, per planner.
pub struct Sites {
    /// Right after the plan commit.
    pub(crate) plan: &'static str,
    /// After the planner's preparation, before any shard search.
    pub(crate) apply: Option<&'static str>,
    /// Between deadline-bounded search slices.
    pub(crate) search_kill: &'static str,
    /// After validation, before the stage is returned.
    pub(crate) publish: &'static str,
}

/// The engine knobs a planner's configuration carries.
pub struct Knobs<'c> {
    /// Directory of the state file and search checkpoints.
    pub(crate) dir: &'c Path,
    /// Base search configuration; seed, shards, weights, deadline and
    /// checkpoint are set per slice.
    pub(crate) search: &'c SearchConfig,
    /// Wall-clock budget per search slice (`None`: one slice).
    pub(crate) slice: Option<Duration>,
    /// Rounds between periodic search checkpoints.
    pub(crate) ckpt_every: usize,
}

/// One shard to rebuild.
pub struct ShardJob {
    /// Shard index.
    pub(crate) shard: usize,
    /// The shard's tags in the search lake: none empties the shard, one
    /// makes its tag state the root, more are searched.
    pub(crate) tags: Vec<TagId>,
    /// Search seed.
    pub(crate) seed: u64,
    /// Per-table demand weights of the shard context, if any.
    pub(crate) weights: Option<Vec<f64>>,
}

/// What a planner hands the engine for one planned cycle.
pub struct Prepared<'l> {
    /// The lake the shard searches run over.
    pub(crate) lake: Cow<'l, DataLake>,
    /// The post-cycle context when the tag universe changed.
    pub(crate) ctx: Option<OrgContext>,
    /// The shards to rebuild, in order.
    pub(crate) jobs: Vec<ShardJob>,
    /// Change events this cycle folds in.
    pub(crate) applied_events: u64,
}

/// The durable engine state: the cycle counter, the planner's head, the
/// served shard roots and the in-flight plan.
pub struct State<P: Planner> {
    /// Completed-cycle counter.
    pub(crate) cycle: u64,
    /// Planner-owned durable fields.
    pub(crate) head: P::Head,
    /// Shard roots in the served organization.
    pub(crate) shard_roots: Vec<StateId>,
    /// The in-flight plan, if any.
    pub(crate) plan: Option<P::Plan>,
}

/// What decides a cycle: one implementation per background loop.
pub trait Planner: Sized {
    /// Planner-owned durable fields, stored after the cycle counter.
    type Head;
    /// A committed plan.
    type Plan: Clone;
    /// Magic prefix of the state file.
    const MAGIC: &'static [u8; 8];
    /// State file name under the engine directory.
    const STATE_FILE: &'static str;
    /// The loop's name in errors (`"optimizer"`).
    const NAME: &'static str;
    /// Failpoint names of the phase sites.
    const SITES: Sites;

    /// The engine knobs of this planner's configuration.
    fn knobs(&self) -> Knobs<'_>;
    /// Checkpoint file name of `shard`'s search.
    fn ckpt_file(shard: usize) -> String;
    /// Encode the head.
    fn write_head(head: &Self::Head, w: &mut Writer);
    /// Decode the head.
    fn read_head(r: &mut Reader<'_>) -> DlnResult<Self::Head>;
    /// Encode a plan.
    fn write_plan(plan: &Self::Plan, w: &mut Writer);
    /// Decode a plan over `n_shards` shards.
    fn read_plan(r: &mut Reader<'_>, n_shards: usize, context: &str) -> DlnResult<Self::Plan>;
    /// Fingerprint of the organization the plan was made against.
    fn pre_fp(plan: &Self::Plan) -> u64;
    /// Plan the next cycle, or `None` when there is nothing to do. Must be
    /// a pure function of durable state and `org`.
    fn plan(
        &self,
        st: &State<Self>,
        ctx: &OrgContext,
        org: &Organization,
    ) -> DlnResult<Option<Self::Plan>>;
    /// Mutate `out` (a clone of the served organization) before the shard
    /// rebuilds, recording changed slots, and name the rebuilds.
    fn prepare(
        &self,
        st: &State<Self>,
        plan: &Self::Plan,
        ctx: &OrgContext,
        out: &mut Organization,
        changed: &mut Vec<u32>,
    ) -> DlnResult<Prepared<'_>>;
    /// Final touches after the rebuilds, before validation.
    fn finish(
        &self,
        _out: &mut Organization,
        _ctx: &OrgContext,
        _roots: &[StateId],
    ) -> DlnResult<()> {
        Ok(())
    }
    /// Fold a published plan into the head (before the state write).
    fn adopt(_head: &mut Self::Head, _plan: Self::Plan) {}
    /// After the committing state write: compact the planner's log.
    fn committed(&mut self, head: &Self::Head) -> DlnResult<()>;
}

/// The crash-safe cycle engine over a [`Planner`]. All durable state lives
/// under the planner's directory, so "restart after a crash" is opening a
/// new engine over the same directory.
pub struct Cycle<P: Planner> {
    pub(crate) planner: P,
    pub(crate) state: State<P>,
}

/// The typed error for an injected crash at `site` — the in-process
/// stand-in for `kill -9` at a phase boundary.
fn injected(site: &str) -> DlnError {
    DlnError::io(
        site.to_string(),
        std::io::Error::other(format!("injected cycle crash at {site}")),
    )
}

fn crash_point(site: &str) -> DlnResult<()> {
    if dln_fault::should_fail(site) {
        return Err(injected(site));
    }
    Ok(())
}

/// Environment variable `var` parsed, or `None` when unset or malformed.
pub(crate) fn env_var<T: FromStr>(var: &str) -> Option<T> {
    std::env::var(var).ok()?.trim().parse().ok()
}

/// A positive millisecond slice budget from environment variable `var`.
pub(crate) fn env_slice(var: &str) -> Option<Duration> {
    env_var::<u64>(var)
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis)
}

/// Derive a per-cycle search seed from the base seed (splitmix-style
/// mixing, matching the repo's substream discipline).
pub(crate) fn derive_cycle_seed(base: u64, cycle: u64, shard: u64) -> u64 {
    let mut z = base
        .wrapping_add(cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(shard.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn remove_with_prev(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(persist::prev_path(path));
}

impl<P: Planner> State<P> {
    /// Load the durable state file under `dir` (falling back to `.prev`),
    /// or start idle at cycle 0 with `head` and `shard_roots` when there
    /// is none. A durable state overrides both but must describe as many
    /// shards as the caller. Creates `dir` if missing.
    pub(crate) fn open(
        dir: &Path,
        head: P::Head,
        shard_roots: Vec<StateId>,
    ) -> DlnResult<State<P>> {
        std::fs::create_dir_all(dir).map_err(|e| DlnError::io(dir.display().to_string(), e))?;
        let path = dir.join(P::STATE_FILE);
        if !path.exists() && !persist::prev_path(&path).exists() {
            return Ok(State {
                cycle: 0,
                head,
                shard_roots,
                plan: None,
            });
        }
        let what = format!("{} state", P::NAME);
        let state = persist::load_with_fallback(&path, &what, |p| {
            let bytes = std::fs::read(p).map_err(|e| DlnError::io(p.display().to_string(), e))?;
            State::decode(&bytes, &p.display().to_string())
        })?;
        if state.shard_roots.len() != shard_roots.len() {
            return Err(DlnError::InvalidConfig(format!(
                "durable {} state has {} shards, caller supplied {}",
                P::NAME,
                state.shard_roots.len(),
                shard_roots.len()
            )));
        }
        Ok(state)
    }

    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(256);
        w.bytes(P::MAGIC);
        w.u8(STATE_VERSION);
        w.u64(self.cycle);
        P::write_head(&self.head, &mut w);
        w.u64(self.shard_roots.len() as u64);
        for r in &self.shard_roots {
            w.u32(r.0);
        }
        match &self.plan {
            None => w.u8(0),
            Some(p) => {
                w.u8(1);
                P::write_plan(p, &mut w);
            }
        }
        w.seal()
    }

    pub(crate) fn decode(bytes: &[u8], context: &str) -> DlnResult<State<P>> {
        let payload = persist::verify_sealed(bytes, context)?;
        let mut r = Reader::new(payload, 0, context);
        if r.take(8)? != P::MAGIC {
            return Err(DlnError::corrupt(
                context,
                format!("not a {} state file", P::NAME),
            ));
        }
        let version = r.u8()?;
        if version != STATE_VERSION {
            return Err(DlnError::corrupt(
                context,
                format!("unsupported {} state version {version}", P::NAME),
            ));
        }
        let cycle = r.u64()?;
        let head = P::read_head(&mut r)?;
        let n_roots = r.len_prefix()?;
        let shard_roots = (0..n_roots)
            .map(|_| r.u32().map(StateId))
            .collect::<DlnResult<Vec<_>>>()?;
        let plan = match r.u8()? {
            0 => None,
            1 => Some(P::read_plan(&mut r, n_roots, context)?),
            b => {
                return Err(DlnError::corrupt(
                    context,
                    format!("bad plan discriminant {b}"),
                ))
            }
        };
        if r.pos() != payload.len() {
            return Err(DlnError::corrupt(context, "trailing bytes"));
        }
        Ok(State {
            cycle,
            head,
            shard_roots,
            plan,
        })
    }
}

impl<P: Planner> Cycle<P> {
    /// Current phase of the cycle state machine.
    pub fn phase(&self) -> CyclePhase {
        if self.state.plan.is_some() {
            CyclePhase::Searching
        } else {
            CyclePhase::Idle
        }
    }

    /// Whether a plan is in flight (a crashed cycle to finish).
    pub fn in_flight(&self) -> bool {
        self.state.plan.is_some()
    }

    /// Completed-cycle counter.
    pub fn cycle(&self) -> u64 {
        self.state.cycle
    }

    /// Current shard roots (as of the last committed publish;
    /// [`EMPTY_SHARD`] for emptied shards).
    pub fn shard_roots(&self) -> &[StateId] {
        &self.state.shard_roots
    }

    fn state_path(&self) -> PathBuf {
        self.planner.knobs().dir.join(P::STATE_FILE)
    }

    fn ckpt_path(&self, shard: usize) -> PathBuf {
        self.planner.knobs().dir.join(P::ckpt_file(shard))
    }

    fn save_state(&self) -> DlnResult<()> {
        persist::atomic_write(&self.state_path(), &self.state.encode())
    }

    /// Run the next step of the cycle state machine against the served
    /// organization: plan a cycle if idle (durably, before any mutation),
    /// then rebuild the planned shards and stage the republish. Errors are
    /// crashes: the durable state is consistent and a new engine over the
    /// same directory continues bit-identically.
    pub fn advance(&mut self, ctx: &OrgContext, org: &Organization) -> DlnResult<Advance> {
        if self.state.plan.is_none() {
            let Some(plan) = self.planner.plan(&self.state, ctx, org)? else {
                return Ok(Advance::Skipped);
            };
            self.state.plan = Some(plan);
            self.save_state()?;
            crash_point(P::SITES.plan)?;
        }
        let plan = self
            .state
            .plan
            .clone()
            .ok_or_else(|| DlnError::corrupt("cycle", "plan vanished mid-advance"))?;
        if org.fingerprint() != P::pre_fp(&plan) {
            return Err(DlnError::corrupt(
                self.state_path().display().to_string(),
                "served organization diverged from the planned cycle; refusing to apply",
            ));
        }
        let mut out = org.clone();
        if self.state.shard_roots.contains(&out.root()) {
            return Err(DlnError::InvalidConfig(
                "cannot shard-republish the global root".to_string(),
            ));
        }
        // Junction parents per shard, captured before any surgery (a
        // rebase may unlink a singleton shard root whose tag left).
        let junctions: Vec<Vec<StateId>> = self
            .state
            .shard_roots
            .iter()
            .map(|&r| {
                if r == EMPTY_SHARD {
                    Vec::new()
                } else {
                    out.state(r).parents.clone()
                }
            })
            .collect();
        let mut changed: Vec<u32> = Vec::new();
        let prep = self
            .planner
            .prepare(&self.state, &plan, ctx, &mut out, &mut changed)?;
        if let Some(site) = P::SITES.apply {
            crash_point(site)?;
        }
        let ctx_next = prep.ctx.as_ref().unwrap_or(ctx);
        let mut roots = self.state.shard_roots.clone();
        let mut search_stats = Vec::new();
        for job in &prep.jobs {
            let junctions = &junctions[job.shard];
            strip_shard(&mut out, roots[job.shard], junctions, &mut changed);
            if job.tags.is_empty() {
                roots[job.shard] = EMPTY_SHARD;
                continue;
            }
            if junctions.is_empty() {
                return Err(DlnError::corrupt(
                    "cycle.graft",
                    format!("shard {} has tags but no junction parents", job.shard),
                ));
            }
            let new_root = if let [tag] = job.tags[..] {
                // Singleton shard: the tag state itself is the root,
                // matching the fresh-build layout — no search needed.
                out.tag_state(full_tag(ctx_next, tag)?)
            } else {
                let (sctx, sorg, stats) = self.run_shard_search(&prep.lake, job)?;
                search_stats.push(stats);
                graft_subtree(&mut out, ctx_next, &sctx, &sorg, &mut changed)?
            };
            for &j in junctions {
                out.add_edge(j, new_root);
            }
            roots[job.shard] = new_root;
        }
        self.planner.finish(&mut out, ctx_next, &roots)?;
        out.validate(ctx_next)
            .map_err(|m| DlnError::corrupt("cycle", m))?;
        crash_point(P::SITES.publish)?;
        changed.sort_unstable();
        changed.dedup();
        Ok(Advance::Staged(Box::new(CycleStage {
            ctx: prep.ctx,
            org: out,
            changed,
            shards: prep.jobs.iter().map(|j| j.shard).collect(),
            shard_roots: roots,
            applied_events: prep.applied_events,
            search_stats,
        })))
    }

    /// Commit a published cycle: adopt the staged shard roots and the
    /// plan, bump the cycle counter (all durably, in one atomic state
    /// write), then let the planner compact its log and discard the search
    /// checkpoints.
    pub fn mark_published(&mut self, shard_roots: &[StateId]) -> DlnResult<()> {
        if shard_roots.len() != self.state.shard_roots.len() {
            return Err(DlnError::InvalidConfig(format!(
                "published {} shard roots, expected {}",
                shard_roots.len(),
                self.state.shard_roots.len()
            )));
        }
        let Some(plan) = self.state.plan.take() else {
            return Err(DlnError::InvalidConfig(
                "mark_published without an in-flight cycle".to_string(),
            ));
        };
        self.state.shard_roots = shard_roots.to_vec();
        P::adopt(&mut self.state.head, plan);
        self.state.cycle += 1;
        self.save_state()?;
        self.planner.committed(&self.state.head)?;
        for shard in 0..shard_roots.len() {
            remove_with_prev(&self.ckpt_path(shard));
        }
        Ok(())
    }

    /// Run one shard search to completion across deadline slices, resuming
    /// from the shard's durable checkpoint between slices (and across
    /// restarts). Bit-identical to one uninterrupted run.
    fn run_shard_search(
        &self,
        lake: &DataLake,
        job: &ShardJob,
    ) -> DlnResult<(OrgContext, Organization, SearchStats)> {
        let knobs = self.planner.knobs();
        let sctx = OrgContext::for_tag_group(lake, &job.tags);
        let ckpt_path = self.ckpt_path(job.shard);
        loop {
            let mut sorg = init::clustering_org(&sctx);
            let ck = if ckpt_path.exists() || persist::prev_path(&ckpt_path).exists() {
                Checkpoint::load_with_fallback(&ckpt_path).ok()
            } else {
                None
            };
            // The search deadline is a *total* wall-clock budget including
            // checkpointed progress, so each slice extends it by `slice`
            // beyond what the checkpoint already accumulated.
            let prior = ck
                .as_ref()
                .map(|c| Duration::from_nanos(c.elapsed_nanos))
                .unwrap_or(Duration::ZERO);
            let scfg = SearchConfig {
                seed: job.seed,
                shards: ShardPolicy::Fixed(1),
                table_weights: job.weights.clone(),
                deadline: knobs.slice.map(|s| prior + s),
                checkpoint: Some(CheckpointConfig {
                    path: ckpt_path.clone(),
                    every_rounds: knobs.ckpt_every.max(1),
                }),
                ..knobs.search.clone()
            };
            let stats = match &ck {
                Some(ck) => match search::resume(&sctx, &mut sorg, &scfg, ck) {
                    Ok(stats) => stats,
                    Err(e) => {
                        // Stale (previous cycle) or torn checkpoint: start
                        // this shard's search from scratch.
                        eprintln!(
                            "warning: {} checkpoint {} unusable ({e}); restarting shard search",
                            P::NAME,
                            ckpt_path.display()
                        );
                        remove_with_prev(&ckpt_path);
                        sorg = init::clustering_org(&sctx);
                        search::optimize(&sctx, &mut sorg, &scfg)
                    }
                },
                None => search::optimize(&sctx, &mut sorg, &scfg),
            };
            match stats.stop {
                // Slice exhausted; the final checkpoint is on disk.
                StopReason::Deadline => crash_point(P::SITES.search_kill)?,
                // `search.kill` fired at a round boundary: the crash
                // leaves only the last periodic checkpoint behind.
                StopReason::Killed => return Err(injected("search.kill")),
                _ => return Ok((sctx, sorg, stats)),
            }
        }
    }
}

/// The full-context tag id of global tag `tag`.
fn full_tag(ctx: &OrgContext, tag: TagId) -> DlnResult<u32> {
    ctx.local_tag(tag).ok_or_else(|| {
        DlnError::corrupt(
            "cycle.graft",
            format!("shard tag {} missing from the full context", tag.0),
        )
    })
}

/// Strip a shard's subtree before its rebuild. An interior root's whole
/// interior subtree is edge-stripped and tombstoned (recorded in
/// `changed`); a singleton shard's root is its tag state, so only the
/// junction edges go (a no-op for a tag the rebase already unlinked).
fn strip_shard(
    out: &mut Organization,
    root: StateId,
    junctions: &[StateId],
    changed: &mut Vec<u32>,
) {
    if root == EMPTY_SHARD {
        return;
    }
    if out.state(root).tag.is_some() {
        for &j in junctions {
            out.remove_edge(j, root);
        }
        return;
    }
    let mut interiors: Vec<StateId> = out
        .descendants_of(&[root])
        .into_iter()
        .filter(|&s| out.state(s).tag.is_none())
        .collect();
    interiors.sort_unstable_by_key(|s| s.0);
    for s in interiors {
        for c in out.state(s).children.clone() {
            out.remove_edge(s, c);
        }
        for p in out.state(s).parents.clone() {
            out.remove_edge(p, s);
        }
        out.set_alive(s, false);
        changed.push(s.0);
    }
}

/// Graft a searched shard organization (over `sctx`) into `out`: tag
/// states map onto their existing full-organization slots (so untouched
/// paths stay valid verbatim), interiors append as fresh slots in
/// topological order (recorded in `changed`). Deterministic, which makes
/// a crash between graft and publish recoverable by redoing both. Returns
/// the new shard root; junction linking is the caller's job.
fn graft_subtree(
    out: &mut Organization,
    ctx: &OrgContext,
    sctx: &OrgContext,
    sorg: &Organization,
    changed: &mut Vec<u32>,
) -> DlnResult<StateId> {
    let order = sorg.topo_order().to_vec();
    let mut map: HashMap<u32, StateId> = HashMap::with_capacity(order.len());
    for &sid in &order {
        let st = sorg.state(sid);
        let mapped = if let Some(lt) = st.tag {
            out.tag_state(full_tag(ctx, sctx.tag(lt).global)?)
        } else {
            let full_tags = st
                .tags
                .iter()
                .map(|lt| full_tag(ctx, sctx.tag(lt).global))
                .collect::<DlnResult<Vec<u32>>>()?;
            let bits = BitSet::from_iter_with_capacity(ctx.n_tags(), full_tags);
            let ns = out.add_state(ctx, bits, None);
            changed.push(ns.0);
            ns
        };
        map.insert(sid.0, mapped);
    }
    let slot = |s: StateId| -> DlnResult<StateId> {
        map.get(&s.0)
            .copied()
            .ok_or_else(|| DlnError::corrupt("cycle.graft", "unmapped shard state"))
    };
    for &sid in &order {
        let parent = slot(sid)?;
        for &c in &sorg.state(sid).children {
            out.add_edge(parent, slot(c)?);
        }
    }
    slot(sorg.root())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::build_sharded;
    use dln_synth::TagCloudConfig;

    #[test]
    fn graft_preserves_untouched_shards_and_is_deterministic() {
        let _clean = dln_fault::scoped("").expect("clean scope");
        let bench = TagCloudConfig::small().generate();
        let cfg = SearchConfig {
            max_iters: 60,
            plateau_iters: 20,
            shards: ShardPolicy::Fixed(2),
            ..SearchConfig::default()
        };
        let sharded = build_sharded(&bench.lake, &cfg);
        let ctx = &sharded.built.ctx;
        let org = &sharded.built.organization;
        let shard = 0usize;
        let tags = sharded.shard_tags[shard].clone();
        let sctx = OrgContext::for_tag_group(&bench.lake, &tags);
        let mut sorg = init::clustering_org(&sctx);
        let scfg = SearchConfig {
            max_iters: 40,
            plateau_iters: 15,
            seed: 7,
            ..SearchConfig::default()
        };
        search::optimize(&sctx, &mut sorg, &scfg);
        let old_root = sharded.shard_roots[shard];
        let graft = || {
            let mut out = org.clone();
            let junctions = out.state(old_root).parents.clone();
            let mut changed = Vec::new();
            strip_shard(&mut out, old_root, &junctions, &mut changed);
            let root = graft_subtree(&mut out, ctx, &sctx, &sorg, &mut changed).expect("graft");
            for &j in &junctions {
                out.add_edge(j, root);
            }
            out.validate(ctx).expect("valid graft");
            changed.sort_unstable();
            (out, changed, root)
        };
        let (g1, changed1, root1) = graft();
        let (g2, changed2, root2) = graft();
        assert_eq!(g1.fingerprint(), g2.fingerprint(), "graft is deterministic");
        assert_eq!(changed1, changed2);
        assert_eq!(root1, root2);
        // Tag states keep their slots; the other shard's subtree is
        // untouched (no changed slot reachable from its root).
        for t in 0..ctx.n_tags() as u32 {
            assert_eq!(g1.tag_state(t), org.tag_state(t));
        }
        let other_root = sharded.shard_roots[1];
        for s in g1.descendants_of(&[other_root]) {
            assert!(
                changed1.binary_search(&s.0).is_err(),
                "untouched shard slot {} must not be in the changed set",
                s.0
            );
        }
        // The old shard interiors are tombstoned; the new root is alive
        // and reaches exactly the shard's tag states.
        assert!(!g1.state(old_root).alive);
        assert!(g1.state(root1).alive);
        let reached: std::collections::HashSet<u32> = g1
            .descendants_of(&[root1])
            .into_iter()
            .filter_map(|s| g1.state(s).tag)
            .collect();
        let expect: std::collections::HashSet<u32> = tags
            .iter()
            .map(|t| ctx.local_tag(*t).expect("tag in full ctx"))
            .collect();
        assert_eq!(reached, expect);
    }

    #[test]
    fn derive_cycle_seed_varies_by_cycle_and_shard() {
        let s0 = derive_cycle_seed(1, 0, 0);
        assert_ne!(s0, derive_cycle_seed(1, 1, 0));
        assert_ne!(s0, derive_cycle_seed(1, 0, 1));
        assert_eq!(s0, derive_cycle_seed(1, 0, 0), "pure function");
    }
}
