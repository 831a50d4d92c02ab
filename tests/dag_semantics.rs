//! Tests of the *DAG* (multi-parent) probability semantics: Equation 3 sums
//! reach probability over **all** discovery sequences, which is exactly what
//! `ADD_PARENT` exploits — a state with two parents can be reached two ways.
//! These tests build diamonds explicitly and verify the evaluator computes
//! the path-sum, that levels/topo orders behave, and that the navigation
//! model stays a proper (sub-)probability measure.

use datalake_nav::org::{
    clustering_org, flat_org, ops, BitSet, Evaluator, NavConfig, OrgContext, Organization,
    Representatives,
};
use datalake_nav::prelude::*;

fn ctx() -> OrgContext {
    let bench = TagCloudConfig {
        n_tags: 8,
        n_attrs_target: 40,
        values_min: 4,
        values_max: 10,
        store_values: false,
        ..TagCloudConfig::small()
    }
    .generate();
    OrgContext::full(&bench.lake)
}

/// Build a diamond: root → {A, B} → shared tag state `t0`, with remaining
/// tag states under A or B to keep the graph sensible.
fn diamond(ctx: &OrgContext) -> Organization {
    let n = ctx.n_tags();
    assert!(n >= 4);
    let mut org = Organization::with_tag_states(ctx);
    let half = n / 2;
    // A holds tags 0..=half, B holds tags {0} ∪ (half+1..n): tag 0 shared.
    let a_tags = BitSet::from_iter_with_capacity(n, (0..=half as u32).collect::<Vec<_>>());
    let b_tags =
        BitSet::from_iter_with_capacity(n, std::iter::once(0u32).chain(half as u32 + 1..n as u32));
    let a = org.add_state(ctx, a_tags, None);
    let b = org.add_state(ctx, b_tags, None);
    org.add_edge(org.root(), a);
    org.add_edge(org.root(), b);
    // Tag 0 under BOTH interior states (the diamond).
    org.add_edge(a, org.tag_state(0));
    org.add_edge(b, org.tag_state(0));
    for t in 1..=half as u32 {
        org.add_edge(a, org.tag_state(t));
    }
    for t in half as u32 + 1..n as u32 {
        org.add_edge(b, org.tag_state(t));
    }
    org
}

#[test]
fn diamond_validates_and_has_multi_parent_state() {
    let ctx = ctx();
    let org = diamond(&ctx);
    org.validate(&ctx).expect("diamond is a valid organization");
    let shared = org.tag_state(0);
    assert_eq!(org.state(shared).parents.len(), 2, "two discovery paths");
}

#[test]
fn reach_probability_sums_over_paths() {
    // Equation 3: P(s|X,O) = Σ over discovery sequences. For the shared tag
    // state, reach must equal the sum of the two path products — we verify
    // by comparing against a hand-rolled two-path computation.
    let ctx = ctx();
    let org = diamond(&ctx);
    let reps = Representatives::exact(&ctx);
    let nav = NavConfig::default();
    let ev = Evaluator::new(&ctx, &org, nav, &reps);
    // Take the first attribute of tag 0 as the query and recompute by hand.
    let attr = ctx.tag(0).attrs[0];
    let unit = ctx.attr(attr).unit_topic.clone();
    let manual_trans =
        |parent: datalake_nav::org::StateId, child: datalake_nav::org::StateId| -> f64 {
            let children = &org.state(parent).children;
            let scale = nav.gamma as f64 / children.len() as f64;
            let scores: Vec<f64> = children
                .iter()
                .map(|&c| scale * datalake_nav::embed::dot(&org.state(c).unit_topic, &unit) as f64)
                .collect();
            let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
            let total: f64 = exps.iter().sum();
            let idx = children.iter().position(|&c| c == child).expect("child");
            exps[idx] / total
        };
    let root = org.root();
    let (a, b) = (org.state(root).children[0], org.state(root).children[1]);
    let shared = org.tag_state(0);
    let expected = manual_trans(root, a) * manual_trans(a, shared)
        + manual_trans(root, b) * manual_trans(b, shared);
    // Reconstruct the evaluator's reach for this attribute by reading the
    // discovery probability and dividing out the (precomputed) final hop.
    // Simpler: compute exact discovery and compare against expected × hop.
    let exact = datalake_nav::org::eval::discovery_probs(&ctx, &org, nav);
    // hop: softmax of the attr among tag 0's population.
    let pop = &ctx.tag(0).attrs;
    let scale = nav.gamma as f64 / pop.len() as f64;
    let scores: Vec<f64> = pop
        .iter()
        .map(|&bb| scale * datalake_nav::embed::dot(&ctx.attr(bb).unit_topic, &unit) as f64)
        .collect();
    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
    let total: f64 = exps.iter().sum();
    let own = pop.iter().position(|&x| x == attr).unwrap();
    let hop = exps[own] / total;
    // Other tags of the attribute (TagCloud: exactly one tag) — so the
    // discovery probability is exactly reach(shared) × hop.
    assert_eq!(ctx.attr(attr).tags.len(), 1);
    let got = exact[attr as usize];
    let want = expected * hop;
    assert!(
        (got - want).abs() < 1e-9,
        "path-sum mismatch: evaluator {got} vs manual {want}"
    );
    drop(ev);
}

#[test]
fn shared_state_outreaches_single_parent_version() {
    // Removing one diamond edge must strictly reduce the shared tag state's
    // attributes' discovery probability (fewer discovery sequences).
    let ctx = ctx();
    let org2 = diamond(&ctx);
    let mut org1 = diamond(&ctx);
    let b = org1.state(org1.root()).children[1];
    org1.remove_edge(b, org1.tag_state(0));
    let nav = NavConfig::default();
    let d2 = datalake_nav::org::eval::discovery_probs(&ctx, &org2, nav);
    let d1 = datalake_nav::org::eval::discovery_probs(&ctx, &org1, nav);
    for &a in &ctx.tag(0).attrs {
        // Only strictly greater if the attr has no other tags (true in
        // TagCloud).
        assert!(
            d2[a as usize] > d1[a as usize],
            "attr {a}: two paths {} must beat one {}",
            d2[a as usize],
            d1[a as usize]
        );
    }
}

#[test]
fn incremental_evaluation_handles_diamonds() {
    // apply_delta on an organization that already contains multi-parent
    // states must agree with full recomputation.
    let ctx = ctx();
    let mut org = diamond(&ctx);
    let reps = Representatives::exact(&ctx);
    let nav = NavConfig::default();
    let mut ev = Evaluator::new(&ctx, &org, nav, &reps);
    let reach = ev.reachability();
    // Add another parent somewhere.
    let target = org.tag_state(1);
    if let Some(out) = ops::try_add_parent(&mut org, &ctx, target, &reach) {
        let (_undo, _stats) = ev.apply_delta(&ctx, &org, &out.dirty_parents);
        let fresh = Evaluator::new(&ctx, &org, nav, &reps);
        assert!(
            (ev.effectiveness() - fresh.effectiveness()).abs() < 1e-9,
            "incremental {} vs fresh {}",
            ev.effectiveness(),
            fresh.effectiveness()
        );
    }
}

#[test]
fn leaf_mass_is_bounded_in_dags() {
    // In a tree the total mass over sinks is exactly 1; a DAG *duplicates*
    // mass along multiple paths, so per-state reach stays ≤ 1 but the sum
    // over sinks may exceed 1 — discovery composes with `1 − Π(1 − p)`, so
    // this is sound. Verify reach stays within [0, 1] per state.
    let ctx = ctx();
    let org = diamond(&ctx);
    let nav = NavConfig::default();
    let disc = datalake_nav::org::eval::discovery_probs(&ctx, &org, nav);
    for (a, d) in disc.iter().enumerate() {
        assert!(
            (0.0..=1.0).contains(d),
            "attr {a} discovery probability {d} out of range"
        );
    }
}

#[test]
fn ops_on_flat_and_clustering_interoperate() {
    // Cross-check: starting from clustering, a few ADD_PARENTs produce
    // multi-parent states, and the org still validates and evaluates.
    let ctx = ctx();
    let mut org = clustering_org(&ctx);
    let reps = Representatives::exact(&ctx);
    let nav = NavConfig::default();
    let mut ev = Evaluator::new(&ctx, &org, nav, &reps);
    let mut produced_multi_parent = false;
    for t in 0..ctx.n_tags() as u32 {
        let reach = ev.reachability();
        let target = org.tag_state(t);
        if let Some(out) = ops::try_add_parent(&mut org, &ctx, target, &reach) {
            ev.apply_delta(&ctx, &org, &out.dirty_parents);
            if org.state(org.tag_state(t)).parents.len() > 1 {
                produced_multi_parent = true;
            }
        }
    }
    assert!(produced_multi_parent, "ADD_PARENT should create diamonds");
    org.validate(&ctx).expect("valid");
    let flat = flat_org(&ctx);
    flat.validate(&ctx).expect("valid");
}
