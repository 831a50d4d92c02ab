//! The epoch-committed cycle engine of the [`Maintainer`]: its durable
//! state file, the advance / mark-published state machine, and the
//! checkpointed shard re-search and graft. [`crate::maintain`] decides
//! what a cycle changes (the plan and the rebase); this module carries it
//! out crash-safely:
//!
//! 1. **Plan commit** — an idle maintainer plans a cycle (a pure function
//!    of its change log and the served organization) and commits it to
//!    the state file before any mutation, so a crashed cycle resumes the
//!    identical plan.
//! 2. **Fingerprint check** — every advance verifies that the served
//!    organization still carries the plan's pre-cycle fingerprint.
//! 3. **Apply** — a clone of the organization is rebased onto the
//!    post-churn lake, then each affected shard's subtree is stripped,
//!    re-searched in deadline-bounded, checkpointed slices, grafted back
//!    and re-linked under its junction parents. Routing tags and
//!    memberships are refreshed and the result is validated and staged
//!    ([`Advance::Staged`]).
//! 4. **Publish** — the caller publishes the stage as a shard-scoped
//!    republish, then calls [`Maintainer::mark_published`]: one atomic
//!    state write commits the new shard roots and assignment, the change
//!    log is compacted, the search checkpoints are dropped and the
//!    maintainer adopts the stage's post-churn lake catalog.
//!
//! A cycle replays the change log twice, once to plan and once to apply
//! (a resumed plan must rebuild its lake from the log alone); both replays
//! build values-free catalogs.
//!
//! State file (`<dir>/maint.state`, published with
//! [`dln_persist::atomic_write`]): a sealed record of `[magic "DLNMAINT"]
//! [version:u8][cycle:u64][applied_seq:u64][shard labels][n_roots:u64]
//! [roots:u32…]` and a plan flag byte, followed by the plan when it is 1.
//!
//! Every phase boundary is a `churn.*` crash point; errors are crashes,
//! and a new maintainer over the same directory continues bit-identically.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use dln_fault::{DlnError, DlnResult};
use dln_lake::{DataLake, TagId};
use dln_persist::{self as persist, Reader, Writer};

use crate::bitset::BitSet;
use crate::checkpoint::{Checkpoint, CheckpointConfig};
use crate::ctx::OrgContext;
use crate::graph::{Organization, StateId};
use crate::init;
use crate::maintain::Maintainer;
use crate::search::{self, SearchConfig, SearchStats, ShardPolicy, StopReason};

/// Magic prefix of the state file.
const STATE_MAGIC: &[u8; 8] = b"DLNMAINT";
/// State file format version.
const STATE_VERSION: u8 = 1;
/// State file name under [`MaintConfig::dir`](crate::MaintConfig::dir).
pub(crate) const STATE_FILE: &str = "maint.state";

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

/// What one [`Maintainer::advance`] produced.
pub enum Advance {
    /// Nothing to do: no new events and no label drifted.
    Skipped,
    /// A cycle is staged; the caller must publish it and then call
    /// [`Maintainer::mark_published`] with its `shard_roots`.
    Staged(Box<CycleStage>),
}

/// A staged shard-scoped republish.
pub struct CycleStage {
    /// The post-churn lake catalog, `replay(seed, events ≤ to_seq)`;
    /// pass back to [`Maintainer::mark_published`], which adopts it.
    pub lake: DataLake,
    /// The post-churn context the organization is built over.
    pub ctx: OrgContext,
    /// The organization with the affected shards grafted in.
    pub org: Organization,
    /// Sorted changed slots (tombstones ∪ appended or re-linked states;
    /// junctions excluded) — the shard-republish scope, so sessions on
    /// untouched shards ride in place.
    pub changed: Vec<u32>,
    /// Every shard root in `org` ([`EMPTY_SHARD`] for emptied shards);
    /// pass back to [`Maintainer::mark_published`] with `lake`.
    pub shard_roots: Vec<StateId>,
    /// Change events folded in by this cycle.
    pub applied_events: u64,
    /// Statistics of the shard searches, in plan order (shards rebuilt
    /// without a search have none).
    pub search_stats: Vec<SearchStats>,
}

/// A planned cross-shard label move.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PlannedMove {
    pub(crate) label: String,
    pub(crate) from: u32,
    pub(crate) to: u32,
}

/// The in-flight maintenance plan — a pure function of (change log ≤
/// `to_seq`, shard assignment), durably committed before any mutation.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PlanState {
    /// Log horizon: the cycle applies exactly the events in
    /// `(applied_seq, to_seq]`.
    pub(crate) to_seq: u64,
    /// Base search seed for this cycle (per-shard seeds derived from it).
    pub(crate) seed: u64,
    /// Fingerprint the served organization must still carry.
    pub(crate) pre_fp: u64,
    /// The full next shard→labels assignment.
    pub(crate) shard_labels: Vec<Vec<String>>,
    /// Sorted indices of shards that need a rebuild.
    pub(crate) affected: Vec<u32>,
    /// Cross-shard rebalance moves (donors not in `affected` are handled
    /// by pure edge surgery).
    pub(crate) moves: Vec<PlannedMove>,
}

/// The durable maintainer state: the cycle counter, what the served
/// organization is built from, its shard roots and the in-flight plan.
pub(crate) struct State {
    /// Completed-cycle counter.
    pub(crate) cycle: u64,
    /// Last change-log sequence number folded into the served lake.
    pub(crate) applied_seq: u64,
    /// Shard→labels assignment of the served organization.
    pub(crate) shard_labels: Vec<Vec<String>>,
    /// Shard roots in the served organization.
    pub(crate) shard_roots: Vec<StateId>,
    /// The in-flight plan, if any.
    pub(crate) plan: Option<PlanState>,
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

fn write_labels(w: &mut Writer, labels: &[Vec<String>]) {
    w.u64(labels.len() as u64);
    for shard in labels {
        w.u64(shard.len() as u64);
        for l in shard {
            w.str(l);
        }
    }
}

fn read_labels(r: &mut Reader<'_>) -> DlnResult<Vec<Vec<String>>> {
    let n_shards = r.len_prefix(8)?;
    (0..n_shards)
        .map(|_| {
            let n = r.len_prefix(4)?;
            (0..n).map(|_| r.str()).collect()
        })
        .collect()
}

impl PlanState {
    fn write(&self, w: &mut Writer) {
        w.u64(self.to_seq);
        w.u64(self.seed);
        w.u64(self.pre_fp);
        write_labels(w, &self.shard_labels);
        w.u64(self.affected.len() as u64);
        for &s in &self.affected {
            w.u32(s);
        }
        w.u64(self.moves.len() as u64);
        for m in &self.moves {
            w.str(&m.label);
            w.u32(m.from);
            w.u32(m.to);
        }
    }

    /// Decode a plan over `n_shards` shards.
    fn read(r: &mut Reader<'_>, n_shards: usize, context: &str) -> DlnResult<PlanState> {
        let shard = |r: &mut Reader<'_>| -> DlnResult<u32> {
            let s = r.u32()?;
            if s as usize >= n_shards {
                return Err(DlnError::corrupt(context, "plan shard out of range"));
            }
            Ok(s)
        };
        let to_seq = r.u64()?;
        let seed = r.u64()?;
        let pre_fp = r.u64()?;
        let shard_labels = read_labels(r)?;
        if shard_labels.len() != n_shards {
            return Err(DlnError::corrupt(context, "plan shard count mismatch"));
        }
        let n_affected = r.len_prefix(4)?;
        let affected = (0..n_affected)
            .map(|_| shard(r))
            .collect::<DlnResult<_>>()?;
        let n_moves = r.len_prefix(12)?;
        let moves = (0..n_moves)
            .map(|_| {
                Ok(PlannedMove {
                    label: r.str()?,
                    from: shard(r)?,
                    to: shard(r)?,
                })
            })
            .collect::<DlnResult<_>>()?;
        Ok(PlanState {
            to_seq,
            seed,
            pre_fp,
            shard_labels,
            affected,
            moves,
        })
    }
}

impl State {
    /// Load the durable state file under `dir` (falling back to `.prev`),
    /// or start idle at cycle 0 with `shard_labels` and `shard_roots` when
    /// there is none. A durable state overrides both but must describe as
    /// many shards as the caller. Creates `dir` if missing.
    pub(crate) fn open(
        dir: &Path,
        shard_labels: Vec<Vec<String>>,
        shard_roots: Vec<StateId>,
    ) -> DlnResult<State> {
        std::fs::create_dir_all(dir).map_err(|e| DlnError::io(dir.display().to_string(), e))?;
        let path = dir.join(STATE_FILE);
        if !path.exists() && !persist::prev_path(&path).exists() {
            return Ok(State {
                cycle: 0,
                applied_seq: 0,
                shard_labels,
                shard_roots,
                plan: None,
            });
        }
        let state = persist::load_with_fallback(&path, "maintainer state", |p| {
            let bytes = std::fs::read(p).map_err(|e| DlnError::io(p.display().to_string(), e))?;
            State::decode(&bytes, &p.display().to_string())
        })?;
        if state.shard_roots.len() != shard_roots.len() {
            return Err(DlnError::InvalidConfig(format!(
                "durable maintainer state has {} shards, caller supplied {}",
                state.shard_roots.len(),
                shard_roots.len()
            )));
        }
        if state.shard_labels.len() != state.shard_roots.len() {
            return Err(DlnError::corrupt(
                path.display().to_string(),
                "shard label/root mismatch",
            ));
        }
        Ok(state)
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(256);
        w.bytes(STATE_MAGIC);
        w.u8(STATE_VERSION);
        w.u64(self.cycle);
        w.u64(self.applied_seq);
        write_labels(&mut w, &self.shard_labels);
        w.u64(self.shard_roots.len() as u64);
        for r in &self.shard_roots {
            w.u32(r.0);
        }
        w.opt(&self.plan, |w, p| p.write(w));
        w.seal()
    }

    fn decode(bytes: &[u8], context: &str) -> DlnResult<State> {
        let payload = persist::verify_sealed(bytes, context)?;
        let mut r = Reader::new(payload, 0, context);
        if r.take(8)? != STATE_MAGIC {
            return Err(DlnError::corrupt(context, "not a maintainer state file"));
        }
        let version = r.u8()?;
        if version != STATE_VERSION {
            return Err(DlnError::corrupt(
                context,
                format!("unsupported maintainer state version {version}"),
            ));
        }
        let cycle = r.u64()?;
        let applied_seq = r.u64()?;
        let shard_labels = read_labels(&mut r)?;
        let n_roots = r.len_prefix(4)?;
        let shard_roots = (0..n_roots)
            .map(|_| r.u32().map(StateId))
            .collect::<DlnResult<Vec<_>>>()?;
        let plan = r.opt(|r| PlanState::read(r, n_roots, context))?;
        r.finish()?;
        Ok(State {
            cycle,
            applied_seq,
            shard_labels,
            shard_roots,
            plan,
        })
    }
}

impl Maintainer<'_> {
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
        self.cfg.dir.join(STATE_FILE)
    }

    fn ckpt_path(&self, shard: usize) -> PathBuf {
        self.cfg.dir.join(format!("maint.s{shard}.ckpt"))
    }

    fn save_state(&self) -> DlnResult<()> {
        persist::atomic_write(&self.state_path(), &self.state.encode())
    }

    /// Run the next step of the cycle state machine against the served
    /// organization: plan a cycle if idle (durably, before any mutation),
    /// then rebuild the affected shards and stage the republish. Errors
    /// are crashes: the durable state is consistent and a new maintainer
    /// over the same directory continues bit-identically.
    pub fn advance(&mut self, ctx: &OrgContext, org: &Organization) -> DlnResult<Advance> {
        if self.state.plan.is_none() {
            let Some(plan) = self.plan(org)? else {
                return Ok(Advance::Skipped);
            };
            self.state.plan = Some(plan);
            self.save_state()?;
            crash_point("churn.crash_mid_plan")?;
        }
        let plan = self
            .state
            .plan
            .clone()
            .ok_or_else(|| DlnError::corrupt("cycle", "plan vanished mid-advance"))?;
        if org.fingerprint() != plan.pre_fp {
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
        let (lake_next, ctx_next) = self.rebase(&plan, ctx, &mut out, &mut changed)?;
        crash_point("churn.crash_mid_apply")?;
        let mut roots = self.state.shard_roots.clone();
        let mut search_stats = Vec::new();
        for &si in &plan.affected {
            let shard = si as usize;
            let tags = plan.shard_labels[shard]
                .iter()
                .map(|l| {
                    lake_next.tag_by_label(l).ok_or_else(|| {
                        DlnError::corrupt(
                            "maintain.graft",
                            format!("label {l:?} missing from the new lake"),
                        )
                    })
                })
                .collect::<DlnResult<Vec<TagId>>>()?;
            let junctions = &junctions[shard];
            strip_shard(&mut out, roots[shard], junctions, &mut changed);
            if tags.is_empty() {
                roots[shard] = EMPTY_SHARD;
                continue;
            }
            if junctions.is_empty() {
                return Err(DlnError::corrupt(
                    "cycle.graft",
                    format!("shard {shard} has tags but no junction parents"),
                ));
            }
            let new_root = if let [tag] = tags[..] {
                // Singleton shard: the tag state itself is the root,
                // matching the fresh-build layout — no search needed.
                out.tag_state(full_tag(&ctx_next, tag)?)
            } else {
                let seed = derive_cycle_seed(plan.seed, self.state.cycle, si as u64);
                let (sctx, sorg, stats) = self.run_shard_search(&lake_next, shard, &tags, seed)?;
                search_stats.push(stats);
                graft_subtree(&mut out, &ctx_next, &sctx, &sorg, &mut changed)?
            };
            for &j in junctions {
                out.add_edge(j, new_root);
            }
            roots[shard] = new_root;
        }
        // Routing tier and memberships last, over the live shard roots.
        let live_roots: Vec<StateId> = roots
            .iter()
            .copied()
            .filter(|&r| r != EMPTY_SHARD)
            .collect();
        if live_roots.is_empty() {
            return Err(DlnError::InvalidConfig(
                "churn emptied every shard; refusing to publish an unrouted organization"
                    .to_string(),
            ));
        }
        out.refresh_routing_tags(&live_roots);
        out.refresh_memberships(&ctx_next);
        out.validate(&ctx_next)
            .map_err(|m| DlnError::corrupt("cycle", m))?;
        crash_point("churn.crash_mid_publish")?;
        changed.sort_unstable();
        changed.dedup();
        Ok(Advance::Staged(Box::new(CycleStage {
            lake: lake_next,
            ctx: ctx_next,
            org: out,
            changed,
            shard_roots: roots,
            applied_events: plan.to_seq.saturating_sub(self.state.applied_seq),
            search_stats,
        })))
    }

    /// Commit a published cycle: adopt the staged shard roots and the
    /// plan's assignment and log horizon, bump the cycle counter (all
    /// durably, in one atomic state write) and the stage's post-churn
    /// `lake`, then compact the change log and discard the search
    /// checkpoints. Compaction keeps every event, so that lake is the one
    /// a restarted maintainer replays from the log.
    pub fn mark_published(&mut self, shard_roots: &[StateId], lake: DataLake) -> DlnResult<()> {
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
        self.state.applied_seq = plan.to_seq;
        self.state.shard_labels = plan.shard_labels;
        self.state.cycle += 1;
        self.save_state()?;
        self.lake = lake;
        self.log.compact()?;
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
        shard: usize,
        tags: &[TagId],
        seed: u64,
    ) -> DlnResult<(OrgContext, Organization, SearchStats)> {
        let sctx = OrgContext::for_tag_group(lake, tags);
        let ckpt_path = self.ckpt_path(shard);
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
                seed,
                shards: ShardPolicy::Fixed(1),
                deadline: self.cfg.slice.map(|s| prior + s),
                checkpoint: Some(CheckpointConfig {
                    path: ckpt_path.clone(),
                    every_rounds: self.cfg.ckpt_every.max(1),
                }),
                ..self.cfg.search.clone()
            };
            let stats = match &ck {
                Some(ck) => match search::resume(&sctx, &mut sorg, &scfg, ck) {
                    Ok(stats) => stats,
                    Err(e) => {
                        // Stale (previous cycle) or torn checkpoint: start
                        // this shard's search from scratch.
                        eprintln!(
                            "warning: maintainer checkpoint {} unusable ({e}); restarting shard search",
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
                StopReason::Deadline => crash_point("churn.search_kill")?,
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

    fn labels(groups: &[&[&str]]) -> Vec<Vec<String>> {
        groups
            .iter()
            .map(|g| g.iter().map(|l| l.to_string()).collect())
            .collect()
    }

    #[test]
    fn state_roundtrip_with_and_without_plan() {
        let no_plan = State {
            cycle: 3,
            applied_seq: 17,
            shard_labels: labels(&[&["a", "b"], &[]]),
            shard_roots: vec![StateId(4), EMPTY_SHARD],
            plan: None,
        };
        let got = State::decode(&no_plan.encode(), "test").unwrap();
        assert_eq!(got.cycle, 3);
        assert_eq!(got.applied_seq, 17);
        assert_eq!(got.shard_labels, no_plan.shard_labels);
        assert_eq!(got.shard_roots, no_plan.shard_roots);
        assert!(got.plan.is_none());

        let with_plan = State {
            plan: Some(PlanState {
                to_seq: 29,
                seed: 0xDEAD_BEEF,
                pre_fp: 42,
                shard_labels: labels(&[&["a"], &["b", "c"]]),
                affected: vec![1],
                moves: vec![PlannedMove {
                    label: "c".into(),
                    from: 0,
                    to: 1,
                }],
            }),
            ..no_plan
        };
        let got = State::decode(&with_plan.encode(), "test").unwrap();
        assert_eq!(got.plan, with_plan.plan);
    }

    #[test]
    fn every_flipped_byte_is_rejected_or_roundtrips() {
        let state = State {
            cycle: 1,
            applied_seq: 5,
            shard_labels: labels(&[&["x"], &["y", "z"]]),
            shard_roots: vec![StateId(7), StateId(9)],
            plan: Some(PlanState {
                to_seq: 9,
                seed: 1,
                pre_fp: 2,
                shard_labels: labels(&[&["x"], &["y", "z"]]),
                affected: vec![0, 1],
                moves: vec![],
            }),
        };
        let bytes = state.encode();
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0xFF;
            // Never panics: either a typed error or (for bytes the format
            // doesn't pin down) a clean decode.
            let _ = State::decode(&corrupted, "flip");
        }
        // And the checksum catches at least the payload bytes.
        let mut corrupted = bytes.clone();
        corrupted[10] ^= 0xFF;
        assert!(State::decode(&corrupted, "flip").is_err());
    }

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
