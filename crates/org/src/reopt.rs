//! Crash-safe feedback-driven re-optimization: the background loop that
//! closes §2.4 of the paper.
//!
//! A [`Reoptimizer`] is the [`Cycle`] engine driven by the feedback
//! planner:
//!
//! 1. **Drain** — the service's merged [`NavigationLog`] is appended to the
//!    durable [`EvidenceLog`] (a [`SeqLog`] folding deltas with
//!    [`NavigationLog::merge`]). The drain is *ack-after-durable*: the
//!    service only subtracts what the evidence log reports written, so a
//!    torn append (`reopt.log_torn`) loses nothing and a repeated drain
//!    double-counts nothing.
//! 2. **Plan** — cumulative evidence is propagated through the current
//!    organization ([`NavigationLog::blended_transitions`] over a uniform
//!    prior) to find the shard users hit hardest; per-table demand weights
//!    spread each visited state's walk mass over its member tags. The
//!    plan (shard, derived seed, weights, tag group, pre-cycle
//!    fingerprint) is committed before any search work
//!    (`reopt.crash_mid_cycle`).
//! 3. **Search and publish** — the engine re-searches *only that shard's*
//!    tag group with [`SearchConfig::table_weights`] steering Eq 6 toward
//!    the tables users actually look for (`reopt.search_kill` between
//!    slices), grafts it back under the router (`reopt.crash_mid_publish`
//!    before staging), and on [`Cycle::mark_published`] commits the cycle
//!    and compacts the evidence log.
//!
//! The invariant, enforced by `tests/reopt_chaos.rs`: for any failpoint
//! schedule, a killed optimizer restarted from its durable state converges
//! to the bit-identical organization of an uninterrupted run, never tears a
//! served snapshot, and never loses or double-counts evidence.
//!
//! [`SearchConfig::table_weights`]: crate::search::SearchConfig

use std::borrow::Cow;
use std::cmp::Ordering;
use std::path::PathBuf;
use std::time::Duration;

use dln_fault::{DlnError, DlnResult};
use dln_lake::{DataLake, TagId};
use dln_persist::{Reader, SeqLog, SeqState, Writer};

use crate::ctx::OrgContext;
use crate::cycle::{
    derive_cycle_seed, env_slice, Cycle, Knobs, Planner, Prepared, ShardJob, Sites, State,
};
use crate::feedback::NavigationLog;
use crate::graph::{Organization, StateId};
use crate::search::SearchConfig;
use crate::shard::ShardedBuild;

/// Snapshot body: `[len:u64][navigation-log record]`.
impl SeqState for NavigationLog {
    type Event = NavigationLog;
    const MAGIC: &'static [u8; 8] = b"DLNEVSNP";
    const VERSION: u8 = 1;
    const NAME: &'static str = "evidence";
    const TORN_SITE: &'static str = "reopt.log_torn";

    fn fold(&mut self, _seq: u64, delta: &NavigationLog) {
        self.merge(delta);
    }

    fn encode_event(delta: &NavigationLog) -> Vec<u8> {
        delta.encode()
    }

    fn decode_event(bytes: &[u8], context: &str) -> DlnResult<NavigationLog> {
        NavigationLog::decode(bytes, context)
    }

    fn write_snapshot(&self, _quarantined: u64, w: &mut Writer) {
        let bytes = self.encode();
        w.u64(bytes.len() as u64);
        w.bytes(&bytes);
    }

    fn read_snapshot(
        r: &mut Reader<'_>,
        _seq: u64,
        context: &str,
    ) -> DlnResult<(NavigationLog, u64)> {
        let n = r.len_prefix()?;
        Ok((NavigationLog::decode(r.take(n)?, context)?, 0))
    }
}

/// Durable navigation evidence: a compacted `DLNEVSNP` snapshot plus a WAL
/// of drained deltas, folded with [`NavigationLog::merge`]. The snapshot
/// does not carry the quarantine count.
pub type EvidenceLog = SeqLog<NavigationLog>;

/// Configuration of a [`Reoptimizer`].
#[derive(Clone, Debug)]
pub struct ReoptConfig {
    /// Directory for all durable optimizer artifacts (state file, search
    /// checkpoint, and — unless `DLN_EVIDENCE_PATH` overrides it — the
    /// evidence log). Created if missing.
    pub dir: PathBuf,
    /// Base search configuration for the per-shard incremental searches.
    /// `seed` is re-derived per cycle and `shards` / `checkpoint` /
    /// `deadline` / `table_weights` are overridden per slice.
    pub search: SearchConfig,
    /// Wall-clock budget per search slice; between slices the optimizer
    /// checks `reopt.search_kill` and then resumes from its checkpoint.
    /// `None` runs each shard search to completion in one slice.
    /// Defaults to the `DLN_REOPT_DEADLINE_MS` environment variable.
    pub slice: Option<Duration>,
    /// Rounds between periodic search checkpoints.
    pub ckpt_every: usize,
    /// Dirichlet pseudo-count blending the uniform prior into observed
    /// transitions (shard selection) and smoothing table demand weights.
    pub prior_strength: f64,
    /// Base path of the evidence log (snapshot at `<path>`, WAL at
    /// `<path>.wal`). Defaults to `<dir>/evidence`, overridden by the
    /// `DLN_EVIDENCE_PATH` environment variable.
    pub evidence_path: Option<PathBuf>,
}

impl ReoptConfig {
    /// A configuration rooted at `dir`, with the `DLN_REOPT_DEADLINE_MS`
    /// and `DLN_EVIDENCE_PATH` environment overrides applied.
    pub fn new(dir: impl Into<PathBuf>) -> ReoptConfig {
        ReoptConfig {
            dir: dir.into(),
            search: SearchConfig::default(),
            slice: env_slice("DLN_REOPT_DEADLINE_MS"),
            ckpt_every: 8,
            prior_strength: 4.0,
            evidence_path: std::env::var_os("DLN_EVIDENCE_PATH").map(PathBuf::from),
        }
    }
}

/// The durably committed plan of an in-flight re-optimization cycle.
#[derive(Clone, Debug)]
pub struct PlanState {
    /// Index of the shard being re-optimized.
    shard: usize,
    /// Derived search seed (base seed ⊕ cycle ⊕ shard, splitmix-mixed).
    seed: u64,
    /// Fingerprint of the full organization the plan was made against.
    pre_fp: u64,
    /// Demand weights, one per shard-context table, mean-normalized.
    weights: Vec<f64>,
    /// The shard's tag group (global ids), pinned so a restart searches
    /// the identical context even if the caller's shard map changed.
    tags: Vec<TagId>,
}

/// The feedback planner: picks the shard with the highest observed demand
/// and re-searches it under demand weights.
pub struct Feedback<'a> {
    lake: &'a DataLake,
    cfg: ReoptConfig,
    shard_tags: Vec<Vec<TagId>>,
    evidence: EvidenceLog,
}

/// The crash-safe feedback-driven optimizer: the [`Cycle`] engine over the
/// feedback planner. All durable state lives under [`ReoptConfig::dir`],
/// so "restart after a crash" is just constructing a new `Reoptimizer`
/// over the same directory.
pub type Reoptimizer<'a> = Cycle<Feedback<'a>>;

impl<'a> Reoptimizer<'a> {
    /// Open (or create) an optimizer over `cfg.dir`. `shard_tags` /
    /// `shard_roots` describe the served organization's router layout; a
    /// durable state file from a previous incarnation overrides
    /// `shard_roots` (it tracks committed republishes).
    pub fn new(
        lake: &'a DataLake,
        shard_tags: Vec<Vec<TagId>>,
        shard_roots: Vec<StateId>,
        cfg: ReoptConfig,
    ) -> DlnResult<Reoptimizer<'a>> {
        if shard_tags.len() != shard_roots.len() {
            return Err(DlnError::InvalidConfig(format!(
                "shard map mismatch: {} tag groups vs {} roots",
                shard_tags.len(),
                shard_roots.len()
            )));
        }
        // NaN-rejecting: a NaN prior must fail validation, not pass it.
        if !matches!(
            cfg.prior_strength.partial_cmp(&0.0),
            Some(Ordering::Greater)
        ) {
            return Err(DlnError::InvalidConfig(
                "reopt prior_strength must be positive".to_string(),
            ));
        }
        let evidence_base = cfg
            .evidence_path
            .clone()
            .unwrap_or_else(|| cfg.dir.join("evidence"));
        let evidence = EvidenceLog::open(&evidence_base)?;
        let state = State::open(&cfg.dir, (), shard_roots)?;
        let planner = Feedback {
            lake,
            cfg,
            shard_tags,
            evidence,
        };
        Ok(Cycle { planner, state })
    }

    /// Convenience constructor from a [`ShardedBuild`].
    pub fn for_build(
        lake: &'a DataLake,
        build: &ShardedBuild,
        cfg: ReoptConfig,
    ) -> DlnResult<Reoptimizer<'a>> {
        Reoptimizer::new(
            lake,
            build.shard_tags.clone(),
            build.shard_roots.clone(),
            cfg,
        )
    }

    /// The configuration this optimizer runs under.
    pub fn config(&self) -> &ReoptConfig {
        &self.planner.cfg
    }

    /// All durably drained evidence.
    pub fn evidence(&self) -> &NavigationLog {
        self.planner.evidence.state()
    }

    /// Durably append a drained service-log delta to the evidence log.
    /// Returns its sequence number; on error (torn append) nothing was
    /// acknowledged and the caller must *not* subtract the delta from the
    /// live log.
    pub fn drain(&mut self, delta: &NavigationLog) -> DlnResult<u64> {
        self.planner.evidence.append(delta)
    }
}

impl Planner for Feedback<'_> {
    type Head = ();
    type Plan = PlanState;
    const MAGIC: &'static [u8; 8] = b"DLNREOPT";
    const STATE_FILE: &'static str = "reopt.state";
    const NAME: &'static str = "optimizer";
    const SITES: Sites = Sites {
        plan: "reopt.crash_mid_cycle",
        apply: None,
        search_kill: "reopt.search_kill",
        publish: "reopt.crash_mid_publish",
    };

    fn knobs(&self) -> Knobs<'_> {
        Knobs {
            dir: &self.cfg.dir,
            search: &self.cfg.search,
            slice: self.cfg.slice,
            ckpt_every: self.cfg.ckpt_every,
        }
    }

    fn ckpt_file(_shard: usize) -> String {
        "reopt.ckpt".to_string()
    }

    fn write_head(_head: &(), _w: &mut Writer) {}

    fn read_head(_r: &mut Reader<'_>) -> DlnResult<()> {
        Ok(())
    }

    fn write_plan(p: &PlanState, w: &mut Writer) {
        w.u32(p.shard as u32);
        w.u64(p.seed);
        w.u64(p.pre_fp);
        w.u64(p.weights.len() as u64);
        for v in &p.weights {
            w.u64(v.to_bits());
        }
        w.u64(p.tags.len() as u64);
        for t in &p.tags {
            w.u32(t.0);
        }
    }

    fn read_plan(r: &mut Reader<'_>, n_shards: usize, context: &str) -> DlnResult<PlanState> {
        let shard = r.u32()? as usize;
        let seed = r.u64()?;
        let pre_fp = r.u64()?;
        let n_weights = r.len_prefix()?;
        let weights = (0..n_weights)
            .map(|_| r.u64().map(f64::from_bits))
            .collect::<DlnResult<_>>()?;
        let n_tags = r.len_prefix()?;
        let tags = (0..n_tags)
            .map(|_| r.u32().map(TagId))
            .collect::<DlnResult<_>>()?;
        if shard >= n_shards {
            return Err(DlnError::corrupt(context, "plan shard out of range"));
        }
        Ok(PlanState {
            shard,
            seed,
            pre_fp,
            weights,
            tags,
        })
    }

    fn pre_fp(plan: &PlanState) -> u64 {
        plan.pre_fp
    }

    /// Plan the next cycle from cumulative evidence: propagate session
    /// mass through the organization along blended transitions, pick the
    /// re-optimizable shard with the highest demand, and derive its
    /// demand-weighted objective. Pure function of (evidence, org) — a
    /// replanned crash reproduces the identical plan.
    fn plan(
        &self,
        st: &State<Self>,
        ctx: &OrgContext,
        org: &Organization,
    ) -> DlnResult<Option<PlanState>> {
        let log = self.evidence.state();
        if log.n_sessions() == 0 {
            return Ok(None);
        }
        // Session mass per state, root-first along blended transitions.
        let mut mass = vec![0.0f64; org.n_slots()];
        mass[org.root().index()] = 1.0;
        for &s in org.topo_order() {
            let st = org.state(s);
            if st.children.is_empty() || mass[s.index()] == 0.0 {
                continue;
            }
            let prior = vec![1.0 / st.children.len() as f64; st.children.len()];
            let blended = log.blended_transitions(org, s, &prior, self.cfg.prior_strength);
            let m = mass[s.index()];
            for (&c, p) in st.children.iter().zip(&blended) {
                mass[c.index()] += m * p;
            }
        }
        // Highest-demand re-optimizable shard (≥ 2 tags, not the global
        // root itself); ties break to the lowest index.
        let mut best: Option<(usize, f64)> = None;
        for (i, tags) in self.shard_tags.iter().enumerate() {
            let root = st.shard_roots[i];
            if tags.len() < 2 || root == org.root() {
                continue;
            }
            let demand = mass[root.index()];
            if best.is_none_or(|(_, d)| demand > d) {
                best = Some((i, demand));
            }
        }
        let Some((shard, _)) = best else {
            return Ok(None);
        };
        let tags = self.shard_tags[shard].clone();
        // Fractional tag demand: each visited state's walk mass spreads
        // evenly over its member tags, so a session expresses preference
        // with every step — not only on the (rare) walks that reach a
        // tag-state sink. The root spreads over all tags (a uniform,
        // harmless shift); deep states concentrate demand.
        let mut tag_demand = vec![0.0f64; ctx.n_tags()];
        for s in org.alive_ids() {
            let v = log.visits(s) as f64;
            if v == 0.0 {
                continue;
            }
            let member: Vec<u32> = org.state(s).tags.iter().collect();
            if member.is_empty() {
                continue;
            }
            let share = v / member.len() as f64;
            for t in member {
                tag_demand[t as usize] += share;
            }
        }
        // Demand weights over the shard context's tables: pseudo-count
        // plus the demand of the tags its attributes carry.
        let sctx = OrgContext::for_tag_group(self.lake, &tags);
        let mut weights = Vec::with_capacity(sctx.n_tables());
        for table in sctx.tables() {
            let mut demand = self.cfg.prior_strength;
            for &a in &table.attrs {
                for &lt in &sctx.attr(a).tags {
                    if let Some(f) = ctx.local_tag(sctx.tag(lt).global) {
                        demand += tag_demand[f as usize];
                    }
                }
            }
            weights.push(demand);
        }
        let total: f64 = weights.iter().sum();
        let n = weights.len() as f64;
        for w in &mut weights {
            *w *= n / total;
        }
        Ok(Some(PlanState {
            shard,
            seed: derive_cycle_seed(self.cfg.search.seed, st.cycle, shard as u64),
            pre_fp: org.fingerprint(),
            weights,
            tags,
        }))
    }

    fn prepare(
        &self,
        _st: &State<Self>,
        plan: &PlanState,
        _ctx: &OrgContext,
        _out: &mut Organization,
        _changed: &mut Vec<u32>,
    ) -> DlnResult<Prepared<'_>> {
        Ok(Prepared {
            lake: Cow::Borrowed(self.lake),
            ctx: None,
            jobs: vec![ShardJob {
                shard: plan.shard,
                tags: plan.tags.clone(),
                seed: plan.seed,
                weights: Some(plan.weights.clone()),
            }],
            applied_events: 0,
        })
    }

    fn committed(&mut self, _head: &()) -> DlnResult<()> {
        self.evidence.compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dln_reopt_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    fn sample_delta(seed: u64) -> NavigationLog {
        let mut log = NavigationLog::new();
        log.record_walk(&[StateId(0), StateId((seed % 5) as u32 + 1)]);
        log
    }

    #[test]
    fn evidence_log_roundtrip_and_compaction() {
        let dir = tmp("evlog");
        let base = dir.join("evidence");
        let _clean = dln_fault::scoped("").expect("clean scope");
        let mut ev = EvidenceLog::open(&base).expect("open");
        assert_eq!(ev.last_seq(), 0);
        ev.append(&sample_delta(1)).expect("append 1");
        ev.append(&sample_delta(2)).expect("append 2");
        assert_eq!(ev.last_seq(), 2);
        assert_eq!(ev.state().n_sessions(), 2);
        // Reopen: WAL replays.
        let ev2 = EvidenceLog::open(&base).expect("reopen");
        assert_eq!(ev2.last_seq(), 2);
        assert_eq!(ev2.state().encode(), ev.state().encode());
        // Compact, append more, reopen: snapshot + newer frames.
        ev.compact().expect("compact");
        ev.append(&sample_delta(3)).expect("append 3");
        let ev3 = EvidenceLog::open(&base).expect("reopen after compact");
        assert_eq!(ev3.last_seq(), 3);
        assert_eq!(ev3.state().encode(), ev.state().encode());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_is_truncated_without_losing_acked_frames() {
        // Scoped failpoint guards serialize on one global lock, so they
        // are taken strictly sequentially, never nested.
        let dir = tmp("evtorn");
        let base = dir.join("evidence");
        let acked;
        let mut ev;
        {
            let _clean = dln_fault::scoped("").expect("clean scope");
            ev = EvidenceLog::open(&base).expect("open");
            ev.append(&sample_delta(1)).expect("append 1");
            acked = ev.state().encode();
        }
        // Injected torn append: errors, nothing acknowledged.
        {
            let _torn = dln_fault::scoped("reopt.log_torn:1.0:0").expect("torn scope");
            let err = ev.append(&sample_delta(2)).unwrap_err();
            assert!(matches!(err, DlnError::Corrupt { .. }), "{err}");
        }
        assert_eq!(ev.last_seq(), 1, "torn append not acked");
        {
            let _clean = dln_fault::scoped("").expect("clean scope");
            // Recovery path A: the same handle appends again (tail rewound).
            ev.append(&sample_delta(3)).expect("append after torn");
            assert_eq!(ev.last_seq(), 2);
        }
        {
            let _torn = dln_fault::scoped("reopt.log_torn:1.0:0").expect("torn scope");
            let _ = ev.append(&sample_delta(4)).unwrap_err();
        }
        {
            let _clean = dln_fault::scoped("").expect("clean scope");
            // Recovery path B: a fresh open truncates the torn tail.
            let ev2 = EvidenceLog::open(&base).expect("reopen over torn tail");
            assert_eq!(ev2.last_seq(), 2, "exactly the acked frames survive");
            let mut expect = NavigationLog::decode(&acked, "test").expect("decode");
            expect.merge(&sample_delta(3));
            assert_eq!(ev2.state().encode(), expect.encode());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn state_roundtrip_with_and_without_plan() {
        let idle = State::<Feedback> {
            cycle: 3,
            head: (),
            shard_roots: vec![StateId(10), StateId(20)],
            plan: None,
        };
        let back = State::<Feedback>::decode(&idle.encode(), "test").expect("decode");
        assert_eq!(back.cycle, 3);
        assert_eq!(back.shard_roots, idle.shard_roots);
        assert!(back.plan.is_none());
        let planned = State::<Feedback> {
            plan: Some(PlanState {
                shard: 1,
                seed: 0xDEAD_BEEF,
                pre_fp: 42,
                weights: vec![0.5, 1.5, 1.0],
                tags: vec![TagId(4), TagId(7)],
            }),
            ..idle
        };
        let bytes = planned.encode();
        let plan = State::<Feedback>::decode(&bytes, "test")
            .expect("decode planned")
            .plan
            .expect("plan present");
        assert_eq!(plan.shard, 1);
        assert_eq!(plan.seed, 0xDEAD_BEEF);
        assert_eq!(plan.weights, vec![0.5, 1.5, 1.0]);
        assert_eq!(plan.tags, vec![TagId(4), TagId(7)]);
        // Corruption sweep: every flipped byte is rejected.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(State::<Feedback>::decode(&bad, "flip").is_err(), "flip {i}");
        }
    }

    #[test]
    fn undecodable_evidence_frame_is_quarantined_and_later_frames_survive() {
        // Frames [valid, checksum-valid but undecodable, valid]: the bad
        // frame is counted and skipped, the acked frame after it survives.
        let dir = tmp("evquarantine");
        let base = dir.join("evidence");
        let mut wal = dln_persist::wal_frame(1, &sample_delta(1).encode());
        wal.extend_from_slice(&dln_persist::wal_frame(2, &[0xFF, 0x00, 0x01]));
        wal.extend_from_slice(&dln_persist::wal_frame(3, &sample_delta(3).encode()));
        std::fs::write(dln_persist::wal_path(&base), &wal).expect("write wal");
        let ev = EvidenceLog::open(&base).expect("open quarantines, not fails");
        assert_eq!(ev.last_seq(), 3, "sequence still advances");
        assert_eq!(ev.quarantined(), 1);
        let mut expect = sample_delta(1);
        expect.merge(&sample_delta(3));
        assert_eq!(ev.state().encode(), expect.encode());
        std::fs::remove_dir_all(&dir).ok();
    }
}
