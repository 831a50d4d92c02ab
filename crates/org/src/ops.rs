//! The local-search operations of §3.3: `ADD_PARENT` and `DELETE_PARENT`.
//!
//! Both are implemented as in-place mutations of an [`Organization`] that
//! return an [`OpOutcome`] carrying (a) the *dirty parents* — the states
//! whose outgoing transition distribution changed, from which the
//! evaluator derives the affected subgraph to re-evaluate (§3.4) — and (b)
//! an undo log, so a proposal rejected by the Metropolis test (Eq 9) can be
//! rolled back exactly.

use crate::ctx::OrgContext;
use crate::graph::{Organization, StateId};

/// Which operation was applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// §3.3 Operation I: connect a new, highly reachable parent to the
    /// target state and restore the inclusion property upward.
    AddParent,
    /// §3.3 Operation II: eliminate the target's least reachable parent
    /// (and that parent's interior siblings), reconnecting orphaned
    /// children to their grandparents.
    DeleteParent,
}

/// The record of an applied operation.
#[derive(Debug)]
pub struct OpOutcome {
    /// Which operation ran.
    pub kind: OpKind,
    /// The state the operation targeted.
    pub target: StateId,
    /// States whose outgoing transition distribution changed (children set
    /// changed, or a child's topic vector changed). The evaluator
    /// re-evaluates the descendants of these states' children.
    pub dirty_parents: Vec<StateId>,
    undo: UndoLog,
}

/// One inclusion-maintenance growth record: (state, added tags, added
/// attrs, pre-absorb topic accumulator, pre-absorb unit topic).
type GrowthRecord = (
    StateId,
    Vec<u32>,
    Vec<u32>,
    dln_embed::TopicAccumulator,
    Vec<f32>,
);

#[derive(Debug, Default)]
struct UndoLog {
    /// Edges added by the op (`parent → child`).
    added_edges: Vec<(StateId, StateId)>,
    /// Edges removed by the op.
    removed_edges: Vec<(StateId, StateId)>,
    /// States grown by inclusion maintenance.
    grown: Vec<GrowthRecord>,
    /// States tombstoned by the op.
    killed: Vec<StateId>,
}

/// Apply `ADD_PARENT` to `s`: pick the most reachable interior state at
/// level `level(s) − 1` that is not already a parent of `s` and not a
/// descendant of `s`, make it a parent, and union `s`'s tags into it and
/// its ancestors (inclusion property). Returns `None` when no legal parent
/// candidate exists.
///
/// `reachability[slot]` is the mean reach probability of each state slot
/// (Equation 10), as maintained by the evaluator.
pub fn try_add_parent(
    org: &mut Organization,
    ctx: &OrgContext,
    s: StateId,
    reachability: &[f64],
) -> Option<OpOutcome> {
    if s == org.root() {
        return None;
    }
    let levels = org.levels();
    let l = levels[s.index()];
    if l == u32::MAX || l == 0 {
        return None;
    }
    // Candidate parents: interior alive states exactly one level up.
    let mut best: Option<(StateId, f64)> = None;
    for cand in org.alive_ids() {
        if levels[cand.index()] != l - 1 {
            continue;
        }
        let cs = org.state(cand);
        if cs.tag.is_some() {
            continue; // tag states keep exactly one tag (§3.2)
        }
        if cs.children.contains(&s) {
            continue; // already a parent
        }
        if org.is_ancestor(s, cand) {
            continue; // would create a cycle
        }
        let r = reachability.get(cand.index()).copied().unwrap_or(0.0);
        if best.map(|(_, br)| r > br).unwrap_or(true) {
            best = Some((cand, r));
        }
    }
    let (n, _) = best?;
    let mut undo = UndoLog::default();
    let mut dirty = vec![n];
    org.add_edge(n, s);
    undo.added_edges.push((n, s));
    // Inclusion maintenance: absorb s's tags into n and upward while the
    // absorbing state actually changes (unchanged ⇒ its ancestors already
    // satisfy inclusion).
    let s_tags = org.state(s).tags.clone();
    let mut stack = vec![n];
    let mut seen = vec![false; org.n_slots()];
    seen[n.index()] = true;
    while let Some(x) = stack.pop() {
        let prev_topic = org.state(x).topic.clone();
        let prev_unit = org.state(x).unit_topic.clone();
        let (tags, attrs) = org.absorb_tags(ctx, x, &s_tags);
        if tags.is_empty() && attrs.is_empty() {
            continue;
        }
        let topic_changed = !attrs.is_empty();
        undo.grown.push((x, tags, attrs, prev_topic, prev_unit));
        if topic_changed {
            // x's topic changed ⇒ the transition distributions of all of
            // x's parents changed.
            for &p in &org.state(x).parents {
                if !dirty.contains(&p) {
                    dirty.push(p);
                }
            }
        }
        for &p in &org.state(x).parents {
            if !seen[p.index()] {
                seen[p.index()] = true;
                stack.push(p);
            }
        }
    }
    Some(OpOutcome {
        kind: OpKind::AddParent,
        target: s,
        dirty_parents: dirty,
        undo,
    })
}

/// Apply `DELETE_PARENT` to `s`: eliminate `s`'s least reachable parent
/// `r`, plus `r`'s interior siblings ("except siblings with one tag"),
/// reconnecting every eliminated state's children to its surviving
/// ancestors. Returns `None` when `s` has no eliminable parent (root and
/// tag states are never eliminated).
pub fn try_delete_parent(
    org: &mut Organization,
    ctx: &OrgContext,
    s: StateId,
    reachability: &[f64],
) -> Option<OpOutcome> {
    let _ = ctx;
    if s == org.root() {
        return None;
    }
    // Least reachable eliminable parent.
    let root = org.root();
    let r = org
        .state(s)
        .parents
        .iter()
        .copied()
        .filter(|&p| p != root && org.state(p).tag.is_none())
        .min_by(|a, b| {
            let ra = reachability.get(a.index()).copied().unwrap_or(0.0);
            let rb = reachability.get(b.index()).copied().unwrap_or(0.0);
            ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
        })?;
    // Elimination set: r and its interior siblings (children of r's
    // parents), excluding root, tag states and the target itself.
    let mut eliminate: Vec<StateId> = vec![r];
    for &p in &org.state(r).parents {
        for &sib in &org.state(p).children {
            if sib == r || sib == s || sib == root {
                continue;
            }
            if org.state(sib).tag.is_some() {
                continue;
            }
            if !eliminate.contains(&sib) {
                eliminate.push(sib);
            }
        }
    }
    let in_e = |x: StateId, e: &[StateId]| e.contains(&x);

    let mut undo = UndoLog::default();
    let mut dirty: Vec<StateId> = Vec::new();
    // Resolve the surviving parents of an eliminated state by climbing
    // through eliminated ancestors.
    fn surviving_parents(
        org: &Organization,
        x: StateId,
        eliminate: &[StateId],
        out: &mut Vec<StateId>,
    ) {
        for &p in &org.state(x).parents {
            if eliminate.contains(&p) {
                surviving_parents(org, p, eliminate, out);
            } else if !out.contains(&p) {
                out.push(p);
            }
        }
    }
    // Planned rewiring: surviving children of each eliminated state attach
    // to the state's surviving ancestors.
    let mut new_edges: Vec<(StateId, StateId)> = Vec::new();
    for &x in &eliminate {
        let mut parents = Vec::new();
        surviving_parents(org, x, &eliminate, &mut parents);
        for &c in &org.state(x).children {
            if in_e(c, &eliminate) {
                continue;
            }
            for &p in &parents {
                if !new_edges.contains(&(p, c)) {
                    new_edges.push((p, c));
                }
            }
        }
        for &p in &parents {
            if !dirty.contains(&p) {
                dirty.push(p);
            }
        }
    }
    // Remove all edges incident to the elimination set.
    for &x in &eliminate {
        for p in org.state(x).parents.clone() {
            org.remove_edge(p, x);
            undo.removed_edges.push((p, x));
        }
        for c in org.state(x).children.clone() {
            org.remove_edge(x, c);
            undo.removed_edges.push((x, c));
        }
    }
    // Tombstone.
    for &x in &eliminate {
        org.set_alive(x, false);
        undo.killed.push(x);
    }
    // Rewire.
    for (p, c) in new_edges {
        if org.add_edge(p, c) {
            undo.added_edges.push((p, c));
        }
    }
    Some(OpOutcome {
        kind: OpKind::DeleteParent,
        target: s,
        dirty_parents: dirty,
        undo,
    })
}

/// Roll back an applied operation exactly.
pub fn undo(org: &mut Organization, ctx: &OrgContext, outcome: OpOutcome) {
    let _ = ctx;
    let OpOutcome { undo: log, .. } = outcome;
    // Reverse order of application: rewired edges out, revive, original
    // edges back, shrink grown states.
    for &(p, c) in log.added_edges.iter().rev() {
        org.remove_edge(p, c);
    }
    for &x in log.killed.iter().rev() {
        org.set_alive(x, true);
    }
    for &(p, c) in log.removed_edges.iter().rev() {
        org.add_edge(p, c);
    }
    for (x, tags, attrs, prev_topic, prev_unit) in log.grown.into_iter().rev() {
        org.shed_tags(x, &tags, &attrs, prev_topic, prev_unit);
    }
}

/// The §3.3 proposal at `s`: try one operation, falling back to the other
/// when it has no legal move. `first_add` picks the order (the search draws
/// it uniformly per proposal). Deterministic given the organization, the
/// reachability snapshot and `first_add`.
pub fn propose(
    org: &mut Organization,
    ctx: &OrgContext,
    s: StateId,
    reachability: &[f64],
    first_add: bool,
) -> Option<OpOutcome> {
    if first_add {
        try_add_parent(org, ctx, s, reachability)
            .or_else(|| try_delete_parent(org, ctx, s, reachability))
    } else {
        try_delete_parent(org, ctx, s, reachability)
            .or_else(|| try_add_parent(org, ctx, s, reachability))
    }
}

/// Apply a *specific* operation kind at `s` — used to replay a
/// checkpoint's committed-op log: with the same organization bits and the
/// same reachability snapshot, the outcome is bit-identical to the
/// proposal that chose `kind`.
pub fn try_op(
    org: &mut Organization,
    ctx: &OrgContext,
    s: StateId,
    reachability: &[f64],
    kind: OpKind,
) -> Option<OpOutcome> {
    match kind {
        OpKind::AddParent => try_add_parent(org, ctx, s, reachability),
        OpKind::DeleteParent => try_delete_parent(org, ctx, s, reachability),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::OrgContext;
    use crate::init::{clustering_org, flat_org};
    use dln_synth::TagCloudConfig;

    fn ctx() -> OrgContext {
        let bench = TagCloudConfig::small().generate();
        OrgContext::full(&bench.lake)
    }

    fn uniform_reach(org: &Organization) -> Vec<f64> {
        vec![0.5; org.n_slots()]
    }

    /// Structural fingerprint row: (id, alive, children, parents, tag count, topic count).
    type FingerprintRow = (u32, bool, Vec<u32>, Vec<u32>, usize, u64);

    /// Snapshot of the structural fingerprint of an organization.
    fn fingerprint(org: &Organization) -> Vec<FingerprintRow> {
        (0..org.n_slots() as u32)
            .map(|i| {
                let s = org.state(StateId(i));
                let mut ch: Vec<u32> = s.children.iter().map(|c| c.0).collect();
                let mut pa: Vec<u32> = s.parents.iter().map(|p| p.0).collect();
                ch.sort_unstable();
                pa.sort_unstable();
                (i, s.alive, ch, pa, s.tags.len(), s.topic.count())
            })
            .collect()
    }

    #[test]
    fn add_parent_creates_edge_and_keeps_validity() {
        let ctx = ctx();
        let mut org = clustering_org(&ctx);
        let reach = uniform_reach(&org);
        // Target: some tag state.
        let s = org.tag_state(0);
        let before_parents = org.state(s).parents.len();
        let out = try_add_parent(&mut org, &ctx, s, &reach).expect("applicable");
        assert_eq!(out.kind, OpKind::AddParent);
        assert_eq!(org.state(s).parents.len(), before_parents + 1);
        org.validate(&ctx).expect("valid after ADD_PARENT");
        assert!(!out.dirty_parents.is_empty());
    }

    #[test]
    fn add_parent_maintains_inclusion_upward() {
        let ctx = ctx();
        let mut org = clustering_org(&ctx);
        let reach = uniform_reach(&org);
        let s = org.tag_state(1);
        let out = try_add_parent(&mut org, &ctx, s, &reach).expect("applicable");
        let n = out.undo.added_edges[0].0;
        assert!(org.state(n).tags.is_superset_of(&org.state(s).tags));
        org.validate(&ctx).expect("inclusion holds transitively");
    }

    #[test]
    fn add_parent_undo_restores_exactly() {
        let ctx = ctx();
        let mut org = clustering_org(&ctx);
        let reach = uniform_reach(&org);
        let before = fingerprint(&org);
        let s = org.tag_state(2);
        let out = try_add_parent(&mut org, &ctx, s, &reach).expect("applicable");
        assert_ne!(fingerprint(&org), before, "op changed the graph");
        undo(&mut org, &ctx, out);
        assert_eq!(fingerprint(&org), before, "undo is exact");
        org.validate(&ctx).expect("valid after undo");
    }

    #[test]
    fn add_parent_rejects_root() {
        let ctx = ctx();
        let mut org = clustering_org(&ctx);
        let reach = uniform_reach(&org);
        let root = org.root();
        assert!(try_add_parent(&mut org, &ctx, root, &reach).is_none());
    }

    #[test]
    fn add_parent_on_flat_org_has_no_candidates() {
        // In a flat org every tag state's only possible new parent is the
        // root (level 0), which is already its parent.
        let ctx = ctx();
        let mut org = flat_org(&ctx);
        let reach = uniform_reach(&org);
        let s = org.tag_state(0);
        assert!(try_add_parent(&mut org, &ctx, s, &reach).is_none());
    }

    #[test]
    fn delete_parent_eliminates_and_rewires() {
        let ctx = ctx();
        let mut org = clustering_org(&ctx);
        let reach = uniform_reach(&org);
        // Pick a tag state deep in the binary tree (parent is interior).
        let s = (0..ctx.n_tags() as u32)
            .map(|t| org.tag_state(t))
            .find(|&ts| {
                org.state(ts)
                    .parents
                    .iter()
                    .any(|&p| p != org.root() && org.state(p).tag.is_none())
            })
            .expect("some tag state has an interior parent");
        let n_alive_before = org.n_alive();
        let out = try_delete_parent(&mut org, &ctx, s, &reach).expect("applicable");
        assert_eq!(out.kind, OpKind::DeleteParent);
        assert!(org.n_alive() < n_alive_before, "states were eliminated");
        org.validate(&ctx).expect("valid after DELETE_PARENT");
        // Target survived and is still reachable.
        assert!(org.state(s).alive);
        assert!(!org.state(s).parents.is_empty());
    }

    #[test]
    fn delete_parent_undo_restores_exactly() {
        let ctx = ctx();
        let mut org = clustering_org(&ctx);
        let reach = uniform_reach(&org);
        let s = (0..ctx.n_tags() as u32)
            .map(|t| org.tag_state(t))
            .find(|&ts| {
                org.state(ts)
                    .parents
                    .iter()
                    .any(|&p| p != org.root() && org.state(p).tag.is_none())
            })
            .expect("target with interior parent");
        let before = fingerprint(&org);
        let out = try_delete_parent(&mut org, &ctx, s, &reach).expect("applicable");
        undo(&mut org, &ctx, out);
        assert_eq!(fingerprint(&org), before, "undo is exact");
        org.validate(&ctx).expect("valid after undo");
    }

    #[test]
    fn delete_parent_on_flat_org_is_inapplicable() {
        let ctx = ctx();
        let mut org = flat_org(&ctx);
        let reach = uniform_reach(&org);
        let s = org.tag_state(0);
        // Only parent is the root, which is never eliminated.
        assert!(try_delete_parent(&mut org, &ctx, s, &reach).is_none());
    }

    #[test]
    fn repeated_ops_keep_validity() {
        let ctx = ctx();
        let mut org = clustering_org(&ctx);
        let mut rng_state = 0x12345u64;
        for step in 0..60 {
            let reach: Vec<f64> = (0..org.n_slots())
                .map(|i| {
                    rng_state = rng_state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407 + i as u64);
                    (rng_state >> 11) as f64 / (1u64 << 53) as f64
                })
                .collect();
            let targets: Vec<StateId> = org.alive_ids().filter(|&x| x != org.root()).collect();
            let t = targets[step % targets.len()];
            let out = if step % 2 == 0 {
                try_add_parent(&mut org, &ctx, t, &reach)
            } else {
                try_delete_parent(&mut org, &ctx, t, &reach)
            };
            if let Some(out) = out {
                // Accept half, undo half.
                if step % 4 < 2 {
                    undo(&mut org, &ctx, out);
                }
            }
            org.validate(&ctx)
                .unwrap_or_else(|e| panic!("invalid after step {step}: {e}"));
        }
    }
}
