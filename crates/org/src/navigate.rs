//! Interactive navigation over a built organization.
//!
//! This is the programmatic equivalent of the paper's user-study prototype
//! (§4.4): "At each state, the user can navigate to a desired child node or
//! backtrack to the parent of the current node." Nodes are labelled with
//! representative tags; tag states expose the tables and attributes behind
//! them. The simulated study participants in `dln-study` drive exactly
//! this interface, and the `navigation_repl` example exposes it on stdin.

use dln_embed::{batch_dot_wide, dot};
use dln_fault::{DlnError, DlnResult};
use dln_lake::TableId;

use crate::ctx::OrgContext;
use crate::eval::NavConfig;
use crate::graph::{Organization, StateId};

/// Transition probabilities out of `state` for a query topic (unit
/// vector), per Eq 1 — what a user "having the topic in mind" would
/// gravitate toward. The free-function form of
/// [`Navigator::transition_probs`]: it borrows only the organization, so
/// the serving layer can run it against a shared immutable snapshot
/// without materializing a cursor.
pub fn transition_probs_from(
    org: &Organization,
    nav: NavConfig,
    state: StateId,
    query_unit: &[f32],
) -> Vec<(StateId, f64)> {
    let children = &org.state(state).children;
    if children.is_empty() {
        return Vec::new();
    }
    let scale = nav.gamma as f64 / children.len() as f64;
    let mut scores: Vec<(StateId, f64)> = children
        .iter()
        .map(|&c| (c, scale * dot(&org.state(c).unit_topic, query_unit) as f64))
        .collect();
    softmax_in_place(&mut scores);
    scores
}

/// [`transition_probs_from`] against a precomputed row-major
/// `n_children × dim` matrix of the state's child unit topics (rows in
/// `children` order). Serving snapshots cache these matrices per state so
/// the per-request work is a single streaming mat-vec instead of `k`
/// pointer-chasing dot products; each row runs the same kernel as the
/// scattered path ([`dln_embed::batch_dot_wide`]'s contract), and the
/// softmax is shared, so the probabilities are **bit-identical** to
/// [`transition_probs_from`].
///
/// # Panics
/// Panics in debug builds when the matrix shape does not match the
/// state's child count times the query dimensionality.
pub fn transition_probs_from_mat(
    org: &Organization,
    nav: NavConfig,
    state: StateId,
    child_mat: &[f32],
    query_unit: &[f32],
) -> Vec<(StateId, f64)> {
    transition_probs_over(&org.state(state).children, nav, child_mat, query_unit)
}

/// The structure-free core of [`transition_probs_from_mat`]: Eq 1 over an
/// explicit child list and its row-major `children.len() × dim` unit-topic
/// matrix. Both the in-memory cached-matrix path and the mapped store path
/// ([`crate::store::MappedSnapshot`]) funnel here, so a snapshot served
/// from disk is bit-identical to the one it was saved from.
///
/// # Panics
/// Panics in debug builds when the matrix shape does not match the child
/// count times the query dimensionality.
pub fn transition_probs_over(
    children: &[StateId],
    nav: NavConfig,
    child_mat: &[f32],
    query_unit: &[f32],
) -> Vec<(StateId, f64)> {
    if children.is_empty() {
        return Vec::new();
    }
    debug_assert_eq!(child_mat.len(), children.len() * query_unit.len());
    let mut dots = Vec::with_capacity(children.len());
    batch_dot_wide(child_mat, query_unit, children.len(), &mut dots);
    let scale = nav.gamma as f64 / children.len() as f64;
    let mut scores: Vec<(StateId, f64)> = children
        .iter()
        .zip(&dots)
        .map(|(&c, &d)| (c, scale * d))
        .collect();
    softmax_in_place(&mut scores);
    scores
}

/// The Eq 1 softmax (max-subtracted, normalized when the mass is
/// positive), shared by the scattered and cached-matrix transition paths
/// so both produce the same bits.
fn softmax_in_place(scores: &mut [(StateId, f64)]) {
    let max = scores
        .iter()
        .map(|(_, s)| *s)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for (_, s) in scores.iter_mut() {
        *s = (*s - max).exp();
        sum += *s;
    }
    if sum > 0.0 {
        for (_, s) in scores.iter_mut() {
            *s /= sum;
        }
    }
}

/// A cursor over an organization, remembering the path from the root.
pub struct Navigator<'a> {
    ctx: &'a OrgContext,
    org: &'a Organization,
    nav: NavConfig,
    path: Vec<StateId>,
}

impl<'a> Navigator<'a> {
    /// A navigator positioned at the root.
    pub fn new(ctx: &'a OrgContext, org: &'a Organization, nav: NavConfig) -> Navigator<'a> {
        Navigator {
            ctx,
            org,
            nav,
            path: vec![org.root()],
        }
    }

    /// The current state.
    pub fn current(&self) -> StateId {
        // The path always holds at least the root ([`new`] seeds it and
        // [`backtrack`] / [`reset`] never drain it); fall back to the root
        // rather than panicking if that invariant ever broke.
        self.path.last().copied().unwrap_or_else(|| self.org.root())
    }

    /// The path from the root to the current state.
    pub fn path(&self) -> &[StateId] {
        &self.path
    }

    /// Depth of the current state (root = 0).
    pub fn depth(&self) -> usize {
        self.path.len() - 1
    }

    /// Children of the current state.
    pub fn children(&self) -> &[StateId] {
        &self.org.state(self.current()).children
    }

    /// Display label of a state (§4.4 labelling scheme).
    pub fn label(&self, sid: StateId) -> String {
        self.org.label(self.ctx, sid, 2)
    }

    /// If the current state is a tag state, its local tag.
    pub fn at_tag_state(&self) -> Option<u32> {
        self.org.state(self.current()).tag
    }

    /// Transition probabilities from the current state for a query topic
    /// (unit vector), per Eq 1 — what a user "having the topic in mind"
    /// would gravitate toward.
    pub fn transition_probs(&self, query_unit: &[f32]) -> Vec<(StateId, f64)> {
        transition_probs_from(self.org, self.nav, self.current(), query_unit)
    }

    /// Descend into `child`. Errors with
    /// [`DlnError::InvalidNavigation`] when `child` is not a child of the
    /// current state; the cursor does not move.
    pub fn descend(&mut self, child: StateId) -> DlnResult<()> {
        if !self.children().contains(&child) {
            return Err(DlnError::invalid_navigation(format!(
                "state {} is not a child of state {}",
                child.0,
                self.current().0
            )));
        }
        self.path.push(child);
        Ok(())
    }

    /// Backtrack one step; returns false at the root.
    pub fn backtrack(&mut self) -> bool {
        if self.path.len() > 1 {
            self.path.pop();
            true
        } else {
            false
        }
    }

    /// Jump back to the root.
    pub fn reset(&mut self) {
        self.path.truncate(1);
    }

    /// The lake tables represented under the current state (tables with at
    /// least one attribute in the state's attribute set), most-covered
    /// first.
    pub fn tables_here(&self) -> Vec<(TableId, usize)> {
        let state = self.org.state(self.current());
        let mut counts: Vec<(TableId, usize)> = Vec::new();
        for (ti, table) in self.ctx.tables().iter().enumerate() {
            let n = table
                .attrs
                .iter()
                .filter(|&&a| state.attrs.contains(a))
                .count();
            if n > 0 {
                counts.push((self.ctx.tables()[ti].global, n));
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        counts
    }

    /// Number of attributes under the current state.
    pub fn n_attrs_here(&self) -> usize {
        self.org.state(self.current()).attrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::clustering_org;
    use dln_synth::TagCloudConfig;

    fn setup() -> (OrgContext, Organization) {
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        let org = clustering_org(&ctx);
        (ctx, org)
    }

    #[test]
    fn starts_at_root_and_descends() {
        let (ctx, org) = setup();
        let mut nav = Navigator::new(&ctx, &org, NavConfig::default());
        assert_eq!(nav.current(), org.root());
        assert_eq!(nav.depth(), 0);
        let child = nav.children()[0];
        nav.descend(child).unwrap();
        assert_eq!(nav.current(), child);
        assert_eq!(nav.depth(), 1);
        assert!(nav.backtrack());
        assert_eq!(nav.current(), org.root());
        assert!(!nav.backtrack(), "cannot backtrack past the root");
    }

    #[test]
    fn descend_rejects_non_children_with_typed_error() {
        let (ctx, org) = setup();
        let mut nav = Navigator::new(&ctx, &org, NavConfig::default());
        let ts = org.tag_state(0);
        if !nav.children().contains(&ts) {
            let before = nav.current();
            match nav.descend(ts) {
                Err(DlnError::InvalidNavigation { context }) => {
                    assert!(context.contains(&format!("state {}", ts.0)), "{context}");
                }
                other => panic!("expected InvalidNavigation, got {other:?}"),
            }
            assert_eq!(nav.current(), before, "a rejected descend does not move");
        }
    }

    #[test]
    fn free_fn_matches_navigator_transitions() {
        let (ctx, org) = setup();
        let nav = Navigator::new(&ctx, &org, NavConfig::default());
        let query = ctx.attr(0).unit_topic.clone();
        let via_nav = nav.transition_probs(&query);
        let via_free = transition_probs_from(&org, NavConfig::default(), org.root(), &query);
        assert_eq!(via_nav, via_free);
    }

    #[test]
    fn cached_matrix_transitions_match_scattered_bitwise() {
        let (ctx, org) = setup();
        let nav = NavConfig::default();
        let query = ctx.attr(0).unit_topic.clone();
        for sid in org.alive_ids() {
            let children = &org.state(sid).children;
            let mut mat = Vec::with_capacity(children.len() * ctx.dim());
            for &c in children {
                mat.extend_from_slice(&org.state(c).unit_topic);
            }
            let scattered = transition_probs_from(&org, nav, sid, &query);
            let cached = transition_probs_from_mat(&org, nav, sid, &mat, &query);
            assert_eq!(scattered.len(), cached.len());
            for ((s1, p1), (s2, p2)) in scattered.iter().zip(&cached) {
                assert_eq!(s1, s2);
                assert_eq!(
                    p1.to_bits(),
                    p2.to_bits(),
                    "probs diverge at state {}",
                    sid.0
                );
            }
        }
    }

    #[test]
    fn transition_probs_form_distribution_and_favor_similar() {
        let (ctx, org) = setup();
        let nav = Navigator::new(&ctx, &org, NavConfig::default());
        // Query = topic of attribute 0.
        let query = ctx.attr(0).unit_topic.clone();
        let probs = nav.transition_probs(&query);
        let sum: f64 = probs.iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // The child containing the query attribute should be preferred.
        let holder = probs
            .iter()
            .find(|(c, _)| org.state(*c).attrs.contains(0))
            .expect("some child holds attr 0");
        let other = probs.iter().find(|(c, _)| !org.state(*c).attrs.contains(0));
        if let Some(other) = other {
            assert!(
                holder.1 > other.1,
                "the holding child ({}) must beat the other ({})",
                holder.1,
                other.1
            );
        }
    }

    #[test]
    fn walk_to_tag_state_and_list_tables() {
        let (ctx, org) = setup();
        let mut nav = Navigator::new(&ctx, &org, NavConfig::default());
        // Greedy walk toward attribute 0's topic.
        let query = ctx.attr(0).unit_topic.clone();
        for _ in 0..64 {
            let probs = nav.transition_probs(&query);
            let Some((best, _)) = probs
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .copied()
            else {
                break;
            };
            nav.descend(best).unwrap();
        }
        assert!(nav.at_tag_state().is_some(), "greedy walk reaches a sink");
        let tables = nav.tables_here();
        assert!(!tables.is_empty());
        // The owning table of attribute 0 should be among them iff the walk
        // found its tag; regardless, table list is sane.
        for (_, n) in &tables {
            assert!(*n >= 1);
        }
        assert!(nav.n_attrs_here() >= 1);
    }

    #[test]
    fn reset_returns_to_root() {
        let (ctx, org) = setup();
        let mut nav = Navigator::new(&ctx, &org, NavConfig::default());
        let child = nav.children()[0];
        nav.descend(child).unwrap();
        nav.reset();
        assert_eq!(nav.current(), org.root());
        assert_eq!(nav.path().len(), 1);
    }

    #[test]
    fn labels_are_nonempty() {
        let (ctx, org) = setup();
        let nav = Navigator::new(&ctx, &org, NavConfig::default());
        for &c in nav.children() {
            assert!(!nav.label(c).is_empty());
        }
    }
}
