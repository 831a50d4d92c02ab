//! The organization DAG.
//!
//! States are sets of tags; the graph's sinks are the *tag states* (exactly
//! one tag each, §3.2) and the source is the root, whose tag set is the
//! whole group. Every edge `p → c` satisfies the inclusion property
//! `tags(c) ⊆ tags(p)` — and therefore `attrs(c) ⊆ attrs(p)` since a
//! state's attributes are the union of its tags' populations.
//!
//! Attribute leaves are *implicit*: per §4.3.4 the probability of
//! discovering an attribute is the probability of reaching one of its tag
//! states times the probability of selecting it among the tag's
//! attributes, so the explicit graph stops at tag states.
//!
//! States are stored in a slotted arena; `DELETE_PARENT` tombstones
//! eliminated states (`alive = false`) instead of reindexing, which keeps
//! every evaluator array index-stable across operations.
//!
//! The topological order and the BFS levels are *cached*: the local search
//! asks for both on every proposal, but they only change when the edge set
//! or the alive set changes, so every structural mutation drops the caches
//! and the next query rebuilds them (see `DESIGN.md`, "Performance
//! architecture").

use std::sync::OnceLock;

use dln_embed::TopicAccumulator;

use crate::bitset::BitSet;
use crate::ctx::OrgContext;

/// Identifier of a state within an [`Organization`] (stable across ops).
///
/// `repr(transparent)` over `u32`: a `&[u32]` section of the persistent
/// store ([`crate::store`]) is reinterpreted as `&[StateId]` without a
/// copy, which this layout guarantee makes sound.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct StateId(pub u32);

impl StateId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A node of the organization DAG.
#[derive(Clone, Debug)]
pub struct State {
    /// False when the state was eliminated by `DELETE_PARENT`.
    pub alive: bool,
    /// The local tag of a *tag state* (single-tag sink), else `None`.
    pub tag: Option<u32>,
    /// Tag membership (local tag ids).
    pub tags: BitSet,
    /// Attribute membership: the union of `data(t)` over member tags.
    pub attrs: BitSet,
    /// Topic accumulator over the attribute union (Definition 5).
    pub topic: TopicAccumulator,
    /// Unit-normalized topic vector (cached for cosine-as-dot).
    pub unit_topic: Vec<f32>,
    /// Child states (alive edges only).
    pub children: Vec<StateId>,
    /// Parent states (alive edges only).
    pub parents: Vec<StateId>,
}

/// An organization: a rooted DAG of tag-set states over an [`OrgContext`].
#[derive(Clone, Debug)]
pub struct Organization {
    root: StateId,
    states: Vec<State>,
    /// Tag state of each local tag.
    tag_states: Vec<StateId>,
    /// Cached topological order; dropped by every structural mutation.
    topo: OnceLock<Vec<StateId>>,
    /// Cached BFS levels; dropped by every structural mutation.
    levels: OnceLock<Vec<u32>>,
}

impl Organization {
    /// Create an organization containing only the tag states (one per
    /// context tag) and a root covering every tag. Initializers in
    /// [`crate::init`] add interior structure between root and tag states.
    pub fn with_tag_states(ctx: &OrgContext) -> Organization {
        let n_tags = ctx.n_tags();
        let n_attrs = ctx.n_attrs();
        let mut states = Vec::with_capacity(n_tags + 1);
        let mut tag_states = Vec::with_capacity(n_tags);
        for t in 0..n_tags as u32 {
            let lt = ctx.tag(t);
            let tags = BitSet::from_iter_with_capacity(n_tags, [t]);
            let attrs = BitSet::from_iter_with_capacity(n_attrs, lt.attrs.iter().copied());
            let mut topic = TopicAccumulator::new(ctx.dim());
            for &a in &lt.attrs {
                topic.merge(&ctx.attr(a).topic);
            }
            let unit_topic = topic.unit_mean();
            tag_states.push(StateId(states.len() as u32));
            states.push(State {
                alive: true,
                tag: Some(t),
                tags,
                attrs,
                topic,
                unit_topic,
                children: Vec::new(),
                parents: Vec::new(),
            });
        }
        // Root over the full universe.
        let root_tags = BitSet::full(n_tags);
        let mut org = Organization {
            root: StateId(0),
            states,
            tag_states,
            topo: OnceLock::new(),
            levels: OnceLock::new(),
        };
        let root = org.add_state(ctx, root_tags, None);
        org.root = root;
        org
    }

    /// The root state.
    #[inline]
    pub fn root(&self) -> StateId {
        self.root
    }

    /// A state by id.
    #[inline]
    pub fn state(&self, id: StateId) -> &State {
        &self.states[id.index()]
    }

    /// Drop the order caches after a structural mutation (edge or alive-set
    /// change, or a slot-count change that invalidates array lengths).
    #[inline]
    fn invalidate_order_caches(&mut self) {
        self.topo = OnceLock::new();
        self.levels = OnceLock::new();
    }

    /// Set the alive flag of a state (tombstoning / undo revival).
    pub(crate) fn set_alive(&mut self, id: StateId, alive: bool) {
        if self.states[id.index()].alive != alive {
            self.states[id.index()].alive = alive;
            self.invalidate_order_caches();
        }
    }

    /// Total number of state slots (alive + tombstoned).
    #[inline]
    pub fn n_slots(&self) -> usize {
        self.states.len()
    }

    /// Number of alive states.
    pub fn n_alive(&self) -> usize {
        self.states.iter().filter(|s| s.alive).count()
    }

    /// Structural + topical fingerprint of the alive part of the
    /// organization (FNV-folded): slot identities, tag assignments, exact
    /// child/parent list order, and unit-topic bits. Two organizations
    /// with equal fingerprints are bit-identical as far as the search and
    /// evaluator are concerned. Used for cheap bit-identity assertions and
    /// to bind checkpoints to the initial organization they resumed from.
    pub fn fingerprint(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(0x100_0000_01b3)
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = mix(h, self.n_slots() as u64);
        h = mix(h, self.n_alive() as u64);
        for s in self.alive_ids() {
            let st = self.state(s);
            h = mix(h, s.index() as u64);
            h = mix(h, st.tag.map(|t| t as u64 + 1).unwrap_or(0));
            for &c in &st.children {
                h = mix(h, c.index() as u64 ^ 0x10_0000);
            }
            for &p in &st.parents {
                h = mix(h, p.index() as u64 ^ 0x20_0000);
            }
            for v in &st.unit_topic {
                h = mix(h, v.to_bits() as u64);
            }
        }
        h
    }

    /// Iterate over alive state ids.
    pub fn alive_ids(&self) -> impl Iterator<Item = StateId> + '_ {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, _)| StateId(i as u32))
    }

    /// The tag state of local tag `t`.
    #[inline]
    pub fn tag_state(&self, t: u32) -> StateId {
        self.tag_states[t as usize]
    }

    /// All tag states, indexed by local tag.
    #[inline]
    pub fn tag_states(&self) -> &[StateId] {
        &self.tag_states
    }

    /// Create a new interior state from a tag set, deriving its attribute
    /// union and topic vector from the context. Returns its id.
    pub fn add_state(&mut self, ctx: &OrgContext, tags: BitSet, tag: Option<u32>) -> StateId {
        let mut attrs = BitSet::new(ctx.n_attrs());
        let mut topic = TopicAccumulator::new(ctx.dim());
        for t in tags.iter() {
            for &a in &ctx.tag(t).attrs {
                if attrs.insert(a) {
                    topic.merge(&ctx.attr(a).topic);
                }
            }
        }
        let unit_topic = topic.unit_mean();
        let id = StateId(self.states.len() as u32);
        self.invalidate_order_caches(); // cached arrays are length n_slots
        self.states.push(State {
            alive: true,
            tag,
            tags,
            attrs,
            topic,
            unit_topic,
            children: Vec::new(),
            parents: Vec::new(),
        });
        id
    }

    /// Add edge `parent → child` (no-op if already present).
    ///
    /// Edge lists are kept sorted by slot id. This canonical order makes
    /// edge-set restoration (op undo) an exact *order* restoration too,
    /// which downstream caches rely on: the evaluator's per-state
    /// child-topic matrices are row-aligned with `children` and stay valid
    /// across a remove + re-add round trip.
    ///
    /// Callers must preserve the inclusion property; [`validate`] checks it.
    ///
    /// [`validate`]: Organization::validate
    pub fn add_edge(&mut self, parent: StateId, child: StateId) -> bool {
        debug_assert_ne!(parent, child, "self edge");
        let cs = &mut self.states[parent.index()].children;
        let Err(ci) = cs.binary_search(&child) else {
            return false;
        };
        cs.insert(ci, child);
        let ps = &mut self.states[child.index()].parents;
        if let Err(pi) = ps.binary_search(&parent) {
            ps.insert(pi, parent);
        }
        self.invalidate_order_caches();
        true
    }

    /// Remove edge `parent → child` (returns false if absent).
    pub fn remove_edge(&mut self, parent: StateId, child: StateId) -> bool {
        let cs = &mut self.states[parent.index()].children;
        let Some(ci) = cs.iter().position(|&c| c == child) else {
            return false;
        };
        cs.remove(ci);
        let ps = &mut self.states[child.index()].parents;
        if let Some(pi) = ps.iter().position(|&p| p == parent) {
            ps.remove(pi);
        }
        self.invalidate_order_caches();
        true
    }

    /// Grow state `sid` (and no one else) by the tags in `new_tags`,
    /// updating its attribute union and topic vector incrementally.
    /// Returns the tags and attributes actually added (for undo logs).
    pub(crate) fn absorb_tags(
        &mut self,
        ctx: &OrgContext,
        sid: StateId,
        new_tags: &BitSet,
    ) -> (Vec<u32>, Vec<u32>) {
        let state = &mut self.states[sid.index()];
        let added_tags: Vec<u32> = state.tags.missing_from(new_tags).collect();
        let mut added_attrs = Vec::new();
        for &t in &added_tags {
            state.tags.insert(t);
        }
        for &t in &added_tags {
            for &a in &ctx.tag(t).attrs {
                if state.attrs.insert(a) {
                    state.topic.merge(&ctx.attr(a).topic);
                    added_attrs.push(a);
                }
            }
        }
        if !added_attrs.is_empty() {
            state.topic.write_unit_mean(&mut state.unit_topic);
        }
        (added_tags, added_attrs)
    }

    /// Undo of [`absorb_tags`](Self::absorb_tags): remove the recorded tags
    /// and attributes and restore the exact pre-absorb topic state. The
    /// accumulator is restored from the snapshot rather than by
    /// subtraction, so undo is bit-exact (floating-point subtraction would
    /// leave drift that desynchronizes cached evaluator state).
    pub(crate) fn shed_tags(
        &mut self,
        sid: StateId,
        tags: &[u32],
        attrs: &[u32],
        prev_topic: TopicAccumulator,
        prev_unit: Vec<f32>,
    ) {
        let state = &mut self.states[sid.index()];
        for &t in tags {
            state.tags.remove(t);
        }
        for &a in attrs {
            state.attrs.remove(a);
        }
        state.topic = prev_topic;
        state.unit_topic = prev_unit;
    }

    /// Shortest-path level of every state slot from the root (BFS over
    /// alive edges). Dead or unreachable slots get `u32::MAX`.
    ///
    /// Cached: recomputed only after a structural mutation.
    pub fn levels(&self) -> &[u32] {
        self.levels.get_or_init(|| self.compute_levels())
    }

    fn compute_levels(&self) -> Vec<u32> {
        let mut level = vec![u32::MAX; self.states.len()];
        let mut queue = std::collections::VecDeque::new();
        if self.states[self.root.index()].alive {
            level[self.root.index()] = 0;
            queue.push_back(self.root);
        }
        while let Some(s) = queue.pop_front() {
            let l = level[s.index()];
            for &c in &self.states[s.index()].children {
                if self.states[c.index()].alive && level[c.index()] == u32::MAX {
                    level[c.index()] = l + 1;
                    queue.push_back(c);
                }
            }
        }
        level
    }

    /// Alive states in a topological order (parents before children),
    /// starting from the root.
    ///
    /// Cached: recomputed only after a structural mutation. Use
    /// [`compute_topo_order`](Self::compute_topo_order) to force the
    /// uncached Kahn pass (benchmark baselines).
    pub fn topo_order(&self) -> &[StateId] {
        self.topo.get_or_init(|| self.compute_topo_order())
    }

    /// The uncached Kahn topological sort (what [`topo_order`] memoizes).
    ///
    /// [`topo_order`]: Self::topo_order
    pub fn compute_topo_order(&self) -> Vec<StateId> {
        let mut indeg = vec![0usize; self.states.len()];
        let mut reachable = vec![false; self.states.len()];
        // Restrict to states reachable from the root.
        let mut stack = vec![self.root];
        reachable[self.root.index()] = true;
        while let Some(s) = stack.pop() {
            for &c in &self.states[s.index()].children {
                if self.states[c.index()].alive && !reachable[c.index()] {
                    reachable[c.index()] = true;
                    stack.push(c);
                }
            }
        }
        for (i, s) in self.states.iter().enumerate() {
            if !s.alive || !reachable[i] {
                continue;
            }
            for c in &s.children {
                if self.states[c.index()].alive && reachable[c.index()] {
                    indeg[c.index()] += 1;
                }
            }
        }
        let mut order = Vec::with_capacity(self.states.len());
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(self.root);
        while let Some(s) = queue.pop_front() {
            order.push(s);
            for &c in &self.states[s.index()].children {
                if !self.states[c.index()].alive || !reachable[c.index()] {
                    continue;
                }
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    queue.push_back(c);
                }
            }
        }
        order
    }

    /// Is `anc` an ancestor of (or equal to) `desc` over alive edges?
    pub fn is_ancestor(&self, anc: StateId, desc: StateId) -> bool {
        if anc == desc {
            return true;
        }
        let mut seen = vec![false; self.states.len()];
        let mut stack = vec![anc];
        seen[anc.index()] = true;
        while let Some(s) = stack.pop() {
            for &c in &self.states[s.index()].children {
                if c == desc {
                    return true;
                }
                if self.states[c.index()].alive && !seen[c.index()] {
                    seen[c.index()] = true;
                    stack.push(c);
                }
            }
        }
        false
    }

    /// All alive states reachable from `roots` (inclusive), i.e. the
    /// affected subgraph of an operation.
    pub fn descendants_of(&self, roots: &[StateId]) -> Vec<StateId> {
        let mut seen = vec![false; self.states.len()];
        let mut stack = Vec::new();
        let mut out = Vec::new();
        self.descendants_of_into(roots, &mut seen, &mut stack, &mut out);
        out
    }

    /// Allocation-free form of [`descendants_of`](Self::descendants_of) for
    /// hot callers: `seen` must be an all-false slice of length
    /// [`n_slots`](Self::n_slots); on return `seen[s]` is true exactly for
    /// the states appended to `out` (callers reuse it as their own affected
    /// marker and clear it afterwards). `stack` is scratch and left empty.
    pub fn descendants_of_into(
        &self,
        roots: &[StateId],
        seen: &mut [bool],
        stack: &mut Vec<StateId>,
        out: &mut Vec<StateId>,
    ) {
        debug_assert!(seen.len() >= self.states.len());
        debug_assert!(stack.is_empty());
        for &r in roots {
            if self.states[r.index()].alive && !seen[r.index()] {
                seen[r.index()] = true;
                stack.push(r);
            }
        }
        while let Some(s) = stack.pop() {
            out.push(s);
            for &c in &self.states[s.index()].children {
                if self.states[c.index()].alive && !seen[c.index()] {
                    seen[c.index()] = true;
                    stack.push(c);
                }
            }
        }
    }

    /// A human-readable label for a state: the tag label for tag states,
    /// otherwise the `max_tags` most *popular* member tags (popularity =
    /// attribute count within the state), echoing the labelling scheme of
    /// the user-study prototype (§4.4).
    pub fn label(&self, ctx: &OrgContext, sid: StateId, max_tags: usize) -> String {
        let state = self.state(sid);
        if let Some(t) = state.tag {
            return ctx.tag(t).label.clone();
        }
        let mut scored: Vec<(u32, usize)> = state
            .tags
            .iter()
            .map(|t| {
                let pop = ctx
                    .tag(t)
                    .attrs
                    .iter()
                    .filter(|&&a| state.attrs.contains(a))
                    .count();
                (t, pop)
            })
            .collect();
        scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let names: Vec<&str> = scored
            .iter()
            .take(max_tags.max(1))
            .map(|(t, _)| ctx.tag(*t).label.as_str())
            .collect();
        names.join(" / ")
    }

    /// Structural validation: the graph must be acyclic, every edge must
    /// satisfy the inclusion property, tag states must hold exactly their
    /// tag and have no children, every alive tag state must be reachable
    /// from the root, and parent/child lists must mirror each other.
    pub fn validate(&self, ctx: &OrgContext) -> Result<(), String> {
        // Mirrored adjacency.
        for (i, s) in self.states.iter().enumerate() {
            if !s.alive {
                continue;
            }
            let sid = StateId(i as u32);
            for &c in &s.children {
                if !self.states[c.index()].alive {
                    return Err(format!("edge {i} -> dead state {}", c.0));
                }
                if !self.states[c.index()].parents.contains(&sid) {
                    return Err(format!("edge {i} -> {} not mirrored", c.0));
                }
            }
            for &p in &s.parents {
                if !self.states[p.index()].alive {
                    return Err(format!("state {i} has dead parent {}", p.0));
                }
                if !self.states[p.index()].children.contains(&sid) {
                    return Err(format!("parent edge {} -> {i} not mirrored", p.0));
                }
            }
        }
        // Acyclicity: topo order must cover all reachable alive states.
        let order = self.topo_order();
        let mut reachable = vec![false; self.states.len()];
        let mut stack = vec![self.root];
        reachable[self.root.index()] = true;
        let mut n_reach = 1usize;
        while let Some(s) = stack.pop() {
            for &c in &self.states[s.index()].children {
                if self.states[c.index()].alive && !reachable[c.index()] {
                    reachable[c.index()] = true;
                    n_reach += 1;
                    stack.push(c);
                }
            }
        }
        if order.len() != n_reach {
            return Err(format!(
                "cycle detected: topo covered {} of {} reachable states",
                order.len(),
                n_reach
            ));
        }
        // Inclusion property on both tag and attribute sets.
        for (i, s) in self.states.iter().enumerate() {
            if !s.alive {
                continue;
            }
            for &c in &s.children {
                let cs = &self.states[c.index()];
                if !s.tags.is_superset_of(&cs.tags) {
                    return Err(format!("tags inclusion violated on edge {i} -> {}", c.0));
                }
                if !s.attrs.is_superset_of(&cs.attrs) {
                    return Err(format!("attrs inclusion violated on edge {i} -> {}", c.0));
                }
            }
        }
        // Tag states.
        for (t, &ts) in self.tag_states.iter().enumerate() {
            let s = self.state(ts);
            if !s.alive {
                return Err(format!("tag state {t} eliminated"));
            }
            if s.tag != Some(t as u32) || s.tags.len() != 1 || !s.tags.contains(t as u32) {
                return Err(format!("tag state {t} does not hold exactly its tag"));
            }
            if !s.children.is_empty() {
                return Err(format!("tag state {t} has children"));
            }
            if ctx.n_tags() > 0 && !reachable[ts.index()] {
                return Err(format!("tag state {t} unreachable from root"));
            }
        }
        Ok(())
    }
}

/// What [`Organization::rebase_universe`] did to the tag-state tier.
#[derive(Clone, Debug, Default)]
pub(crate) struct RebaseReport {
    /// Slots of tag states whose tag left the universe (tombstoned).
    pub removed_tag_slots: Vec<u32>,
    /// Freshly appended tag-state slots for tags new to the universe.
    pub added_tag_slots: Vec<u32>,
}

/// Maintenance surgery (`crate::maintain`). These operations deliberately
/// leave the organization *inconsistent in stages* — tag sets are rebased
/// first, shard subtrees are grafted next, the routing tier and the
/// attribute memberships are recomputed last — so callers must finish the
/// full sequence and then [`validate`](Organization::validate).
impl Organization {
    /// Rebase the organization onto a new tag universe (`ctx` over the
    /// post-churn lake). `tag_map[old_local]` gives the surviving tag's
    /// new local id, or `None` when the tag left the lake.
    ///
    /// Slot-preserving: every surviving state keeps its slot number (the
    /// serving layer's session paths stay meaningful), tag bitsets are
    /// translated to the new capacity/ids, removed tag states are
    /// tombstoned and unlinked, and fresh tag states are appended for new
    /// tags — unrouted until a graft links them under a shard. Attribute
    /// memberships are *not* touched here; run
    /// [`refresh_memberships`](Self::refresh_memberships) after the
    /// grafts.
    pub(crate) fn rebase_universe(
        &mut self,
        ctx: &OrgContext,
        tag_map: &[Option<u32>],
    ) -> RebaseReport {
        let n_tags_new = ctx.n_tags();
        self.invalidate_order_caches();
        // Translate every slot's tag set to the new numbering. Dead slots
        // just get empty sets at the new capacity (they are never read,
        // but mixed capacities would trip bitset assertions later).
        for s in &mut self.states {
            if !s.alive {
                s.tags = BitSet::new(n_tags_new);
                continue;
            }
            let mut translated = BitSet::new(n_tags_new);
            for t in s.tags.iter() {
                if let Some(&Some(nt)) = tag_map.get(t as usize) {
                    translated.insert(nt);
                }
            }
            s.tags = translated;
        }
        // Tombstone the tag states of removed tags; renumber the rest.
        let old_tag_states = std::mem::take(&mut self.tag_states);
        let mut report = RebaseReport::default();
        let mut slot_of_new: Vec<Option<StateId>> = vec![None; n_tags_new];
        for (t_old, &slot) in old_tag_states.iter().enumerate() {
            match tag_map.get(t_old).copied().flatten() {
                Some(nt) => {
                    self.states[slot.index()].tag = Some(nt);
                    slot_of_new[nt as usize] = Some(slot);
                }
                None => {
                    for p in self.states[slot.index()].parents.clone() {
                        self.remove_edge(p, slot);
                    }
                    // Tag states have no children by invariant.
                    self.states[slot.index()].tag = None;
                    self.states[slot.index()].alive = false;
                    report.removed_tag_slots.push(slot.0);
                }
            }
        }
        // Fresh tag states for tags new to the universe.
        let mut tag_states = Vec::with_capacity(n_tags_new);
        for (nt, existing) in slot_of_new.into_iter().enumerate() {
            tag_states.push(match existing {
                Some(slot) => slot,
                None => {
                    let bits = BitSet::from_iter_with_capacity(n_tags_new, [nt as u32]);
                    let slot = self.add_state(ctx, bits, Some(nt as u32));
                    report.added_tag_slots.push(slot.0);
                    slot
                }
            });
        }
        self.tag_states = tag_states;
        // The root spans the whole new universe.
        let root = self.root;
        self.states[root.index()].tags = BitSet::full(n_tags_new);
        report
    }

    /// Structurally shed tag `t` (new-universe local id) from the subtree
    /// under `root` — the cheap-donor half of a cross-shard rebalance: no
    /// search, just set/edge surgery. Removes `t` from every interior tag
    /// set in the subtree, unlinks `t`'s tag state from its parents
    /// inside the subtree, and cascade-tombstones interiors left childless
    /// or tag-empty. The subtree root itself is never tombstoned (callers
    /// guarantee the donor retains ≥ 2 tags). Returns the sorted slots
    /// whose content or edges changed.
    pub(crate) fn shed_tag_from_subtree(&mut self, root: StateId, t: u32) -> Vec<u32> {
        let sub = self.descendants_of(&[root]);
        let mut in_sub = vec![false; self.states.len()];
        for &s in &sub {
            in_sub[s.index()] = true;
        }
        let mut changed: Vec<u32> = Vec::new();
        self.invalidate_order_caches();
        for &s in &sub {
            let st = &mut self.states[s.index()];
            if st.tag.is_none() && st.tags.remove(t) {
                changed.push(s.0);
            }
        }
        let ts = self.tag_states[t as usize];
        for p in self.states[ts.index()].parents.clone() {
            if in_sub[p.index()] {
                self.remove_edge(p, ts);
                changed.push(p.0);
            }
        }
        // Cascade: an interior whose children (or tags) ran out carries no
        // navigation value — tombstone it and let its parents re-check.
        loop {
            let mut any = false;
            for &s in &sub {
                if s == root {
                    continue;
                }
                let st = &self.states[s.index()];
                if !st.alive || st.tag.is_some() {
                    continue;
                }
                if st.children.is_empty() || st.tags.is_empty() {
                    for p in self.states[s.index()].parents.clone() {
                        self.remove_edge(p, s);
                    }
                    for c in self.states[s.index()].children.clone() {
                        self.remove_edge(s, c);
                    }
                    self.states[s.index()].alive = false;
                    changed.push(s.0);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        changed.sort_unstable();
        changed.dedup();
        changed
    }

    /// Recompute the routing tier's tag sets: every ancestor of a shard
    /// root (the junctions and the global root, not the shard roots
    /// themselves) gets `tags = ⋃ children`, children-before-parents.
    /// Must run after every graft/shed so the inclusion property holds
    /// across the router again.
    pub(crate) fn refresh_routing_tags(&mut self, shard_roots: &[StateId]) {
        let mut is_junction = vec![false; self.states.len()];
        let mut stack: Vec<StateId> = Vec::new();
        for &r in shard_roots {
            for &p in &self.states[r.index()].parents {
                if !is_junction[p.index()] {
                    is_junction[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        while let Some(s) = stack.pop() {
            for &p in &self.states[s.index()].parents.clone() {
                if !is_junction[p.index()] {
                    is_junction[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        let order = self.topo_order().to_vec();
        let cap = self.tag_states.len();
        self.invalidate_order_caches();
        for &s in order.iter().rev() {
            if !is_junction[s.index()] {
                continue;
            }
            let mut union = BitSet::new(cap);
            for c in self.states[s.index()].children.clone() {
                if self.states[c.index()].alive {
                    union.union_with(&self.states[c.index()].tags);
                }
            }
            self.states[s.index()].tags = union;
        }
    }

    /// Recompute every alive slot's attribute membership, topic
    /// accumulator and unit topic from its tag set against `ctx` — the
    /// exact derivation of [`add_state`](Self::add_state) (tags ascending,
    /// per-tag attrs ascending, merge on fresh insert), so two maintained
    /// organizations with equal tag sets get bit-identical topics. Dead
    /// slots are zeroed at the new capacities.
    pub(crate) fn refresh_memberships(&mut self, ctx: &OrgContext) {
        let n_attrs = ctx.n_attrs();
        let n_tags = ctx.n_tags();
        self.invalidate_order_caches();
        for i in 0..self.states.len() {
            if !self.states[i].alive {
                self.states[i].tags = BitSet::new(n_tags);
                self.states[i].attrs = BitSet::new(n_attrs);
                self.states[i].topic = TopicAccumulator::new(ctx.dim());
                self.states[i].unit_topic = self.states[i].topic.unit_mean();
                continue;
            }
            let mut attrs = BitSet::new(n_attrs);
            let mut topic = TopicAccumulator::new(ctx.dim());
            for t in self.states[i].tags.iter() {
                for &a in &ctx.tag(t).attrs {
                    if attrs.insert(a) {
                        topic.merge(&ctx.attr(a).topic);
                    }
                }
            }
            self.states[i].unit_topic = topic.unit_mean();
            self.states[i].attrs = attrs;
            self.states[i].topic = topic;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::OrgContext;
    use dln_synth::TagCloudConfig;

    impl Organization {
        /// Number of alive edges.
        fn n_edges(&self) -> usize {
            self.states
                .iter()
                .filter(|s| s.alive)
                .map(|s| s.children.len())
                .sum()
        }
    }

    fn ctx() -> OrgContext {
        let bench = TagCloudConfig::small().generate();
        OrgContext::full(&bench.lake)
    }

    /// Flat organization: root → every tag state.
    fn flat(ctx: &OrgContext) -> Organization {
        let mut org = Organization::with_tag_states(ctx);
        for t in 0..ctx.n_tags() as u32 {
            org.add_edge(org.root(), org.tag_state(t));
        }
        org
    }

    #[test]
    fn with_tag_states_builds_root_over_everything() {
        let ctx = ctx();
        let org = Organization::with_tag_states(&ctx);
        let root = org.state(org.root());
        assert_eq!(root.tags.len(), ctx.n_tags());
        assert_eq!(root.attrs.len(), ctx.n_attrs());
        assert_eq!(org.n_alive(), ctx.n_tags() + 1);
        // Root topic counts every attribute's population exactly once.
        let expected: u64 = ctx.attrs().iter().map(|a| a.topic.count()).sum();
        assert_eq!(root.topic.count(), expected);
    }

    #[test]
    fn flat_org_validates() {
        let ctx = ctx();
        let org = flat(&ctx);
        org.validate(&ctx).expect("flat org is structurally valid");
        assert_eq!(org.n_edges(), ctx.n_tags());
    }

    #[test]
    fn levels_of_flat_org() {
        let ctx = ctx();
        let org = flat(&ctx);
        let levels = org.levels();
        assert_eq!(levels[org.root().index()], 0);
        for t in 0..ctx.n_tags() as u32 {
            assert_eq!(levels[org.tag_state(t).index()], 1);
        }
    }

    #[test]
    fn topo_order_parents_first() {
        let ctx = ctx();
        let org = flat(&ctx);
        let order = org.topo_order();
        assert_eq!(order.len(), org.n_alive());
        assert_eq!(order[0], org.root());
    }

    #[test]
    fn cached_orders_track_mutations() {
        let ctx = ctx();
        let mut org = flat(&ctx);
        let before = org.topo_order().to_vec();
        assert_eq!(org.levels().len(), org.n_slots());
        org.remove_edge(org.root(), org.tag_state(0));
        assert_eq!(
            org.topo_order().len(),
            before.len() - 1,
            "topo cache must be dropped on edge removal"
        );
        assert_eq!(
            org.levels()[org.tag_state(0).index()],
            u32::MAX,
            "levels cache must be dropped on edge removal"
        );
        // Re-adding appends the child at the end of root's children list, so
        // the recomputed order is a (valid) permutation of the original.
        org.add_edge(org.root(), org.tag_state(0));
        assert_eq!(org.topo_order().len(), before.len());
        assert_eq!(org.topo_order()[0], org.root());
        assert_eq!(org.topo_order(), org.compute_topo_order().as_slice());
        assert_eq!(org.levels()[org.tag_state(0).index()], 1);
    }

    #[test]
    fn descendants_of_into_reuses_buffers() {
        let ctx = ctx();
        let org = flat(&ctx);
        let mut seen = vec![false; org.n_slots()];
        let mut stack = Vec::new();
        let mut out = Vec::new();
        org.descendants_of_into(&[org.root()], &mut seen, &mut stack, &mut out);
        assert_eq!(out.len(), org.n_alive());
        assert!(stack.is_empty());
        assert!(out.iter().all(|s| seen[s.index()]));
        assert_eq!(out, org.descendants_of(&[org.root()]));
    }

    #[test]
    fn add_remove_edge_roundtrip() {
        let ctx = ctx();
        let mut org = flat(&ctx);
        let ts = org.tag_state(0);
        assert!(!org.add_edge(org.root(), ts), "edge already present");
        assert!(org.remove_edge(org.root(), ts));
        assert!(!org.remove_edge(org.root(), ts));
        assert!(org.add_edge(org.root(), ts));
        org.validate(&ctx).unwrap();
    }

    #[test]
    fn absorb_and_shed_tags_roundtrip() {
        let ctx = ctx();
        let mut org = flat(&ctx);
        // New interior state over tags {0,1}.
        let tags01 = crate::bitset::BitSet::from_iter_with_capacity(ctx.n_tags(), [0u32, 1]);
        let s = org.add_state(&ctx, tags01, None);
        let before_topic = org.state(s).topic.clone();
        let before_unit = org.state(s).unit_topic.clone();
        // Absorb tag 2.
        let extra = crate::bitset::BitSet::from_iter_with_capacity(ctx.n_tags(), [2u32]);
        let (tags, attrs) = org.absorb_tags(&ctx, s, &extra);
        assert_eq!(tags, vec![2]);
        assert_eq!(attrs.len(), ctx.tag(2).attrs.len());
        assert!(org.state(s).tags.contains(2));
        // Shed it again, restoring the snapshot exactly.
        org.shed_tags(s, &tags, &attrs, before_topic.clone(), before_unit.clone());
        assert!(!org.state(s).tags.contains(2));
        assert_eq!(org.state(s).topic.count(), before_topic.count());
        assert_eq!(org.state(s).unit_topic, before_unit, "bit-exact restore");
    }

    #[test]
    fn absorb_overlapping_tags_is_exact_union() {
        // Tags sharing attributes must not double-count in the topic.
        let ctx = ctx();
        let mut org = Organization::with_tag_states(&ctx);
        let all = crate::bitset::BitSet::full(ctx.n_tags());
        let s = org.add_state(&ctx, all, None);
        assert_eq!(
            org.state(s).topic.count(),
            org.state(org.root()).topic.count()
        );
    }

    #[test]
    fn is_ancestor_and_descendants() {
        let ctx = ctx();
        let org = flat(&ctx);
        assert!(org.is_ancestor(org.root(), org.tag_state(0)));
        assert!(!org.is_ancestor(org.tag_state(0), org.root()));
        assert!(org.is_ancestor(org.root(), org.root()));
        let desc = org.descendants_of(&[org.root()]);
        assert_eq!(desc.len(), org.n_alive());
    }

    #[test]
    fn validate_detects_inclusion_violation() {
        let ctx = ctx();
        let mut org = flat(&ctx);
        // tag state 0 as parent of tag state 1 violates inclusion.
        org.add_edge(org.tag_state(0), org.tag_state(1));
        assert!(org.validate(&ctx).is_err());
    }

    #[test]
    fn validate_detects_unreachable_tag_state() {
        let ctx = ctx();
        let mut org = flat(&ctx);
        org.remove_edge(org.root(), org.tag_state(3));
        let err = org.validate(&ctx).unwrap_err();
        assert!(err.contains("unreachable"), "got: {err}");
    }

    #[test]
    fn label_of_tag_state_is_its_tag() {
        let ctx = ctx();
        let org = flat(&ctx);
        assert_eq!(org.label(&ctx, org.tag_state(0), 2), ctx.tag(0).label);
        let root_label = org.label(&ctx, org.root(), 2);
        assert!(root_label.contains(" / "), "root label joins two tags");
    }
}
