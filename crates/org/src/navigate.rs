//! The Eq 1 transition model of navigation: the probability that a user
//! with a query topic in mind moves from a state to each of its children.
//!
//! Navigation itself is served: `dln-serve`'s `NavService::step` ranks a
//! state's children with [`transition_probs_over`] off the child-topic
//! matrices of a snapshot's store bytes, and the §4.4 study participants,
//! the REPL and the wire all walk that path. [`transition_probs_from`],
//! the same probabilities over the in-memory structs, is the oracle the
//! store kernel is tested against.

use dln_embed::{batch_dot_wide, dot};

use crate::eval::NavConfig;
use crate::graph::{Organization, StateId};

/// Transition probabilities out of `state` for a query topic (unit
/// vector), per Eq 1 — what a user "having the topic in mind" would
/// gravitate toward — over the in-memory organization.
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

/// [`transition_probs_from`] over an explicit child list and its
/// precomputed row-major `children.len() × dim` unit-topic matrix (rows in
/// `children` order). Served snapshots hold these matrices in their store
/// bytes ([`crate::store::MappedSnapshot::child_mat`]) so the per-request
/// work is a single streaming mat-vec instead of `k` pointer-chasing dot
/// products; each row runs the same kernel as the scattered path
/// ([`dln_embed::batch_dot_wide`]'s contract), and the softmax is shared,
/// so the probabilities are **bit-identical** to [`transition_probs_from`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::OrgContext;
    use crate::init::clustering_org;
    use dln_synth::TagCloudConfig;

    fn setup() -> (OrgContext, Organization) {
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        let org = clustering_org(&ctx);
        (ctx, org)
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
            let cached = transition_probs_over(children, nav, &mat, &query);
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
        // Query = topic of attribute 0.
        let query = ctx.attr(0).unit_topic.clone();
        let probs = transition_probs_from(&org, NavConfig::default(), org.root(), &query);
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
    fn greedy_walk_reaches_a_tag_state() {
        let (ctx, org) = setup();
        // Greedy walk toward attribute 0's topic.
        let query = ctx.attr(0).unit_topic.clone();
        let mut here = org.root();
        for _ in 0..64 {
            let probs = transition_probs_from(&org, NavConfig::default(), here, &query);
            let Some((best, _)) = probs
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .copied()
            else {
                break;
            };
            here = best;
        }
        assert!(org.state(here).tag.is_some(), "greedy walk reaches a sink");
        assert!(!org.state(here).attrs.is_empty());
    }
}
