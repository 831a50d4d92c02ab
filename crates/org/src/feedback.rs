//! Behaviour logs and incremental transition-model updates.
//!
//! §2.4 of the paper: "Since our model uses a standard Markov model, we can
//! apply existing incremental model estimation techniques to maintain and
//! update the transition probabilities as behavior logs and workload
//! patterns become available through the use of an organization by users."
//!
//! This module implements that update:
//!
//! * [`NavigationLog`] accumulates user walks (from the real navigator or
//!   the simulated study agents) as per-state visit counts and per-edge
//!   choice counts;
//! * [`NavigationLog::blended_transitions`] produces a posterior transition
//!   distribution for a state — a Dirichlet-smoothed blend of the content
//!   model (Eq 1, the prior) and the observed click-through counts — which
//!   the navigator can expose as "popular next steps";
//! * [`NavigationLog::empirical_reachability`] gives per-state visit
//!   frequencies — the observed counterpart of Eq 10's model
//!   reachability.
//!
//! The log lives in memory: the serving layer merges every finished
//! session into one service-wide log.

use std::collections::HashMap;

use crate::graph::{Organization, StateId};

/// Accumulated navigation behaviour over an organization.
#[derive(Clone, Debug, Default)]
pub struct NavigationLog {
    /// Visits per state slot.
    visits: HashMap<u32, u64>,
    /// Chosen transitions: `(parent, child) → count`.
    choices: HashMap<(u32, u32), u64>,
    /// Number of recorded walks.
    sessions: u64,
}

impl NavigationLog {
    /// An empty log.
    pub fn new() -> NavigationLog {
        NavigationLog::default()
    }

    /// Record one walk (the `path()` of a navigator session, or any
    /// root-to-wherever state sequence). Consecutive pairs are counted as
    /// chosen transitions; every state on the path is counted as visited.
    pub fn record_walk(&mut self, path: &[StateId]) {
        if path.is_empty() {
            return;
        }
        self.sessions += 1;
        for s in path {
            *self.visits.entry(s.0).or_insert(0) += 1;
        }
        for w in path.windows(2) {
            *self.choices.entry((w[0].0, w[1].0)).or_insert(0) += 1;
        }
    }

    /// Merge another log into this one (e.g. per-user logs into a global
    /// one — the incremental-estimation setting).
    pub fn merge(&mut self, other: &NavigationLog) {
        for (k, v) in &other.visits {
            *self.visits.entry(*k).or_insert(0) += v;
        }
        for (k, v) in &other.choices {
            *self.choices.entry(*k).or_insert(0) += v;
        }
        self.sessions += other.sessions;
    }

    /// Number of recorded walks.
    pub fn n_sessions(&self) -> u64 {
        self.sessions
    }

    /// Visits of a state.
    pub fn visits(&self, s: StateId) -> u64 {
        self.visits.get(&s.0).copied().unwrap_or(0)
    }

    /// Times the transition `parent → child` was chosen.
    pub fn choices(&self, parent: StateId, child: StateId) -> u64 {
        self.choices.get(&(parent.0, child.0)).copied().unwrap_or(0)
    }

    /// Per-slot empirical reachability: the fraction of sessions that
    /// visited each state. Zero-length output for an empty log.
    pub fn empirical_reachability(&self, org: &Organization) -> Vec<f64> {
        let mut out = vec![0.0f64; org.n_slots()];
        if self.sessions == 0 {
            return out;
        }
        for (slot, count) in &self.visits {
            if let Some(o) = out.get_mut(*slot as usize) {
                *o = *count as f64 / self.sessions as f64;
            }
        }
        out
    }

    /// Posterior transition distribution from `parent`, blending a model
    /// prior (Eq 1 probabilities, parallel to `parent`'s children) with the
    /// observed choice counts under a Dirichlet prior of strength
    /// `prior_strength` (pseudo-counts):
    ///
    /// ```text
    /// P̂(c | s) = (count(s → c) + strength · P_model(c | s))
    ///            / (Σ_c count(s → c) + strength)
    /// ```
    ///
    /// With no observations this returns the prior; with many observations
    /// it converges to the empirical click-through distribution — the
    /// standard incremental Markov-model update the paper points at.
    pub fn blended_transitions(
        &self,
        org: &Organization,
        parent: StateId,
        model_prior: &[f64],
        prior_strength: f64,
    ) -> Vec<f64> {
        let children = &org.state(parent).children;
        assert_eq!(
            children.len(),
            model_prior.len(),
            "one prior probability per child"
        );
        assert!(prior_strength > 0.0, "prior strength must be positive");
        let counts: Vec<f64> = children
            .iter()
            .map(|&c| self.choices(parent, c) as f64)
            .collect();
        let total: f64 = counts.iter().sum::<f64>() + prior_strength;
        counts
            .iter()
            .zip(model_prior)
            .map(|(n, p)| (n + prior_strength * p) / total)
            .collect()
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
    fn record_and_count() {
        let (_ctx, org) = setup();
        let mut log = NavigationLog::new();
        let root = org.root();
        let c0 = org.state(root).children[0];
        let c1 = org.state(root).children[1];
        log.record_walk(&[root, c0]);
        log.record_walk(&[root, c0]);
        log.record_walk(&[root, c1]);
        assert_eq!(log.n_sessions(), 3);
        assert_eq!(log.visits(root), 3);
        assert_eq!(log.choices(root, c0), 2);
        assert_eq!(log.choices(root, c1), 1);
        assert_eq!(log.choices(c0, root), 0, "direction matters");
    }

    #[test]
    fn empty_walk_is_ignored() {
        let mut log = NavigationLog::new();
        log.record_walk(&[]);
        assert_eq!(log.n_sessions(), 0);
    }

    #[test]
    fn empirical_reachability_is_session_fraction() {
        let (_ctx, org) = setup();
        let mut log = NavigationLog::new();
        let root = org.root();
        let c0 = org.state(root).children[0];
        log.record_walk(&[root, c0]);
        log.record_walk(&[root]);
        let r = log.empirical_reachability(&org);
        assert!((r[root.index()] - 1.0).abs() < 1e-12);
        assert!((r[c0.index()] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn blended_transitions_interpolate_prior_and_counts() {
        let (_ctx, org) = setup();
        let mut log = NavigationLog::new();
        let root = org.root();
        let children = org.state(root).children.clone();
        assert_eq!(children.len(), 2);
        let prior = vec![0.5, 0.5];
        // No data → the prior.
        let p0 = log.blended_transitions(&org, root, &prior, 10.0);
        assert!((p0[0] - 0.5).abs() < 1e-12);
        // Heavy clicks on child 0 → converges toward the clicks.
        for _ in 0..90 {
            log.record_walk(&[root, children[0]]);
        }
        for _ in 0..10 {
            log.record_walk(&[root, children[1]]);
        }
        let p = log.blended_transitions(&org, root, &prior, 10.0);
        assert!((p[0] + p[1] - 1.0).abs() < 1e-12, "distribution sums to 1");
        assert!(p[0] > 0.8, "click-through dominates: {}", p[0]);
        assert!(p[0] < 0.9, "prior still smooths: {}", p[0]);
    }

    #[test]
    fn merge_accumulates() {
        let (_ctx, org) = setup();
        let root = org.root();
        let c0 = org.state(root).children[0];
        let mut a = NavigationLog::new();
        a.record_walk(&[root, c0]);
        let mut b = NavigationLog::new();
        b.record_walk(&[root, c0]);
        b.record_walk(&[root]);
        a.merge(&b);
        assert_eq!(a.n_sessions(), 3);
        assert_eq!(a.choices(root, c0), 2);
        assert_eq!(a.visits(root), 3);
    }

    #[test]
    fn concurrent_interleaved_merges_are_order_invariant() {
        // The serving layer merges per-session logs into one service log in
        // whatever order sessions happen to close/evict across threads.
        // Reorganization quality then depends on this: whatever the
        // interleaving, the merged counts — and everything derived from
        // them, like empirical reachability — must equal the fixed-order
        // serial merge.
        use std::sync::Mutex;

        let (_ctx, org) = setup();
        let root = org.root();
        let children = org.state(root).children.clone();

        // 16 distinct per-session logs (different walks and multiplicities).
        let session_logs: Vec<NavigationLog> = (0..16u64)
            .map(|i| {
                let mut l = NavigationLog::new();
                let c = children[(i as usize) % children.len()];
                for _ in 0..=(i % 5) {
                    l.record_walk(&[root, c]);
                }
                if i % 3 == 0 {
                    l.record_walk(&[root]);
                }
                l
            })
            .collect();

        // Reference: serial merge in index order.
        let mut reference = NavigationLog::new();
        for l in &session_logs {
            reference.merge(l);
        }
        let ref_reach = reference.empirical_reachability(&org);

        // Concurrent: four threads race to merge four logs each, so the
        // arrival order at the shared log is scheduler-chosen.
        for round in 0..8 {
            let shared = Mutex::new(NavigationLog::new());
            std::thread::scope(|scope| {
                for chunk in session_logs.chunks(4) {
                    let shared = &shared;
                    scope.spawn(move || {
                        for l in chunk {
                            // Tiny stagger to vary interleavings per round.
                            if round % 2 == 1 {
                                std::thread::yield_now();
                            }
                            shared.lock().unwrap().merge(l);
                        }
                    });
                }
            });
            let merged = shared.into_inner().unwrap();
            assert_eq!(merged.n_sessions(), reference.n_sessions());
            assert_eq!(merged.visits(root), reference.visits(root));
            for &c in &children {
                assert_eq!(merged.visits(c), reference.visits(c));
                assert_eq!(merged.choices(root, c), reference.choices(root, c));
            }
            let reach = merged.empirical_reachability(&org);
            assert_eq!(
                reach, ref_reach,
                "round {round}: reachability must not depend on merge order"
            );
        }
    }

    #[test]
    fn navigator_paths_feed_the_log() {
        // Integration with the navigator: greedy sessions produce walks the
        // log can consume, and popular tags become visibly reachable.
        let (ctx, org) = setup();
        let mut log = NavigationLog::new();
        let nav_cfg = crate::eval::NavConfig::default();
        for t in 0..6u32 {
            let query = ctx.tag(t).unit_topic.clone();
            let mut nav = crate::navigate::Navigator::new(&ctx, &org, nav_cfg);
            for _ in 0..32 {
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
            log.record_walk(nav.path());
        }
        assert_eq!(log.n_sessions(), 6);
        let r = log.empirical_reachability(&org);
        assert!((r[org.root().index()] - 1.0).abs() < 1e-12);
        assert!(r.iter().filter(|&&v| v > 0.0).count() > 6);
    }
}
