//! Property-based tests over the core invariants (seeded random cases
//! generated with the in-workspace `rand`; the registry-hosted `proptest`
//! crate is unavailable in this build environment, so the harness below
//! drives each property over many deterministic random cases itself):
//!
//! * organizations stay structurally valid under arbitrary op sequences;
//! * op undo restores the organization exactly, and evaluator rollback
//!   restores every observable float bit-for-bit;
//! * the incremental parallel evaluator always agrees with a fresh serial
//!   full evaluation to 1e-9, at 1, 4, and 8 threads;
//! * bitsets behave like `BTreeSet<u32>`;
//! * Zipf sampling stays in range; Mann–Whitney U invariants hold.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

use datalake_nav::org::search::{
    optimize, optimize_reference, resume, SearchConfig, ShardPolicy, StopReason,
};
use datalake_nav::org::{
    build_sharded, clustering_org, ops, random_org, Checkpoint, CheckpointConfig, Evaluator,
    NavConfig, OrgContext, Organization, OrganizerBuilder, Representatives,
};
use datalake_nav::prelude::*;
use datalake_nav::study::mann_whitney_u;
use datalake_nav::synth::Zipf;

/// A small deterministic context shared by the org properties (generation
/// is expensive; the *randomness* under test is the op sequence).
fn small_ctx() -> OrgContext {
    let bench = TagCloudConfig {
        n_tags: 12,
        n_attrs_target: 60,
        values_min: 4,
        values_max: 12,
        store_values: false,
        ..TagCloudConfig::small()
    }
    .generate();
    OrgContext::full(&bench.lake)
}

/// Structural fingerprint row: (alive, children, parents, tag count, topic count).
type FingerprintRow = (bool, Vec<u32>, Vec<u32>, usize, u64);

fn org_fingerprint(org: &Organization) -> Vec<FingerprintRow> {
    (0..org.n_slots() as u32)
        .map(|i| {
            let s = org.state(datalake_nav::org::StateId(i));
            let mut ch: Vec<u32> = s.children.iter().map(|c| c.0).collect();
            let mut pa: Vec<u32> = s.parents.iter().map(|p| p.0).collect();
            ch.sort_unstable();
            pa.sort_unstable();
            (s.alive, ch, pa, s.tags.len(), s.topic.count())
        })
        .collect()
}

/// Every observable evaluator float, as exact bits.
fn eval_bits(ev: &Evaluator, ctx: &OrgContext) -> Vec<u64> {
    let mut bits = vec![ev.effectiveness().to_bits()];
    bits.extend((0..ctx.n_attrs() as u32).map(|a| ev.attr_discovery(a).to_bits()));
    bits.extend((0..ctx.n_tables() as u32).map(|t| ev.table_discovery(t).to_bits()));
    for q in 0..ev.n_queries() {
        bits.extend(ev.reach_row(q).iter().map(|v| v.to_bits()));
    }
    bits.extend(ev.reachability().iter().map(|v| v.to_bits()));
    bits
}

/// One random `(kind, target_raw, keep)` op-sequence case.
fn random_steps(rng: &mut StdRng) -> Vec<(u8, u16, bool)> {
    let len = rng.random_range(1..12usize);
    (0..len)
        .map(|_| {
            (
                rng.random_range(0..2u32) as u8,
                rng.random_range(0..1000u32) as u16,
                rng.random::<bool>(),
            )
        })
        .collect()
}

/// Drive one op sequence; after every applied delta, check the incremental
/// parallel evaluator against a fresh serial full evaluation, and after
/// every rollback check bit-for-bit restoration of graph and evaluator.
fn check_op_sequence(ctx: &OrgContext, steps: &[(u8, u16, bool)]) -> Vec<u64> {
    let mut org = clustering_org(ctx);
    let reps = Representatives::exact(ctx);
    let nav = NavConfig::default();
    let mut ev = Evaluator::new(ctx, &org, nav, &reps);
    for &(kind, target_raw, keep) in steps {
        let targets: Vec<_> = org.alive_ids().filter(|&s| s != org.root()).collect();
        let target = targets[target_raw as usize % targets.len()];
        let reach = ev.reachability();
        let before_org = org_fingerprint(&org);
        let before_ev = eval_bits(&ev, ctx);
        let outcome = if kind == 0 {
            ops::try_add_parent(&mut org, ctx, target, &reach)
        } else {
            ops::try_delete_parent(&mut org, ctx, target, &reach)
        };
        let Some(outcome) = outcome else { continue };
        // Validity after every applied op.
        org.validate(ctx).expect("valid after op");
        let (undo_ev, _) = ev.apply_delta(ctx, &org, &outcome.dirty_parents);
        // Incremental evaluation agrees with a fresh (serially summed)
        // full evaluation.
        let fresh = Evaluator::new(ctx, &org, nav, &reps);
        assert!(
            (ev.effectiveness() - fresh.effectiveness()).abs() < 1e-9,
            "incremental {} vs fresh {}",
            ev.effectiveness(),
            fresh.effectiveness()
        );
        for a in 0..ctx.n_attrs() as u32 {
            assert!(
                (ev.attr_discovery(a) - fresh.attr_discovery(a)).abs() < 1e-9,
                "attr {a} drifted"
            );
        }
        if keep {
            continue;
        }
        // Rollback restores the graph exactly and the evaluator bit-for-bit.
        ev.rollback(undo_ev);
        ops::undo(&mut org, ctx, outcome);
        assert_eq!(org_fingerprint(&org), before_org, "op undo must be exact");
        assert_eq!(
            eval_bits(&ev, ctx),
            before_ev,
            "evaluator rollback must restore every bit"
        );
    }
    eval_bits(&ev, ctx)
}

#[test]
fn ops_preserve_validity_and_evaluator_consistency() {
    let ctx = small_ctx();
    let mut rng = StdRng::seed_from_u64(0xDA7A_1AEE);
    for _case in 0..16 {
        let steps = random_steps(&mut rng);
        check_op_sequence(&ctx, &steps);
    }
}

#[test]
fn op_sequences_are_thread_count_invariant() {
    // The evaluator fans out over queries; the final state must be
    // bit-identical whether it ran on 1, 4, or 8 threads.
    let ctx = small_ctx();
    let mut rng = StdRng::seed_from_u64(0x7EAD_C0DE);
    for _case in 0..4 {
        let steps = random_steps(&mut rng);
        let serial = rayon::with_num_threads(1, || check_op_sequence(&ctx, &steps));
        for threads in [4usize, 8] {
            let parallel = rayon::with_num_threads(threads, || check_op_sequence(&ctx, &steps));
            assert_eq!(serial, parallel, "results changed with {threads} threads");
        }
    }
}

#[test]
fn optimize_is_the_reference_walk_at_any_thread_count() {
    // optimize's resumable cursor walk reproduces the nested-loop
    // reference walk bit-for-bit — trajectory, stats, and final
    // organization — regardless of the worker count.
    //
    // The failpoint registry is process-global; hold the (disarmed) scope
    // guard so a concurrently running failpoint test in this binary cannot
    // contaminate these baseline runs.
    let _fp = dln_fault::scoped("").expect("disarm failpoints");
    let ctx = small_ctx();
    for seed in [1u64, 0xBEE5, 424242] {
        for threads in [1usize, 4] {
            let cfg = SearchConfig {
                max_iters: 120,
                plateau_iters: 60,
                seed,
                ..Default::default()
            };
            let mut a_org = random_org(&ctx, seed ^ 0x0A11);
            let mut b_org = random_org(&ctx, seed ^ 0x0A11);
            let (a, b) = rayon::with_num_threads(threads, || {
                (
                    optimize(&ctx, &mut a_org, &cfg),
                    optimize_reference(&ctx, &mut b_org, &cfg),
                )
            });
            assert_eq!(
                a.final_effectiveness.to_bits(),
                b.final_effectiveness.to_bits(),
                "seed {seed}, {threads} threads"
            );
            assert_eq!(a.iterations, b.iterations, "seed {seed}");
            assert_eq!(a.accepted, b.accepted, "seed {seed}");
            assert_eq!(a.iter_stats, b.iter_stats, "seed {seed}");
            assert_eq!(
                org_fingerprint(&a_org),
                org_fingerprint(&b_org),
                "seed {seed}, {threads} threads"
            );
        }
    }
}

#[test]
fn killed_and_resumed_search_is_bit_identical() {
    // Robustness-PR property: kill the search at a random round boundary
    // (via the `search.kill` failpoint), resume from the newest intact
    // checkpoint, repeat until a run finishes — the surviving chain must be
    // bit-identical to the uninterrupted run: same stats, same trajectory,
    // same final organization. Holds at any thread count because
    // checkpoints are only cut at round boundaries and resume replays the
    // committed op log.
    let ctx = small_ctx();
    for (case, (seed, threads)) in [(1u64, 1usize), (7, 2), (42, 2)].into_iter().enumerate() {
        rayon::with_num_threads(threads, || {
            let base = SearchConfig {
                max_iters: 120,
                plateau_iters: 60,
                seed,
                deadline: None,
                checkpoint: None,
                ..Default::default()
            };
            let mut full_org = random_org(&ctx, seed ^ 0x0A11);
            let full = {
                let _fp = dln_fault::scoped("").expect("disarm failpoints");
                optimize(&ctx, &mut full_org, &base)
            };

            let dir =
                std::env::temp_dir().join(format!("dln_prop_kill_{case}_{}", std::process::id()));
            if dir.exists() {
                std::fs::remove_dir_all(&dir).ok();
            }
            std::fs::create_dir_all(&dir).expect("create temp dir");
            let path = dir.join("search.ckpt");
            let cfg = SearchConfig {
                checkpoint: Some(CheckpointConfig {
                    path: path.clone(),
                    every_rounds: 1,
                }),
                ..base.clone()
            };
            let mut kills = 0usize;
            let mut attempt = 0u64;
            let (stats, org) = loop {
                attempt += 1;
                // A fresh kill seed each attempt moves the kill point; after a
                // bounded number of kills, finish fault-free so the chain
                // always terminates.
                let spec = if attempt <= 10 {
                    format!("search.kill:0.4:{}", seed ^ (attempt * 0x9E37))
                } else {
                    String::new()
                };
                let _fp = dln_fault::scoped(&spec).expect("arm failpoints");
                let mut org = random_org(&ctx, seed ^ 0x0A11);
                let stats = match Checkpoint::load_with_fallback(&path) {
                    Ok(ck) => resume(&ctx, &mut org, &cfg, &ck)
                        .expect("resume from an intact checkpoint must succeed"),
                    // Killed before the first checkpoint was cut: start over,
                    // as a restarted process would.
                    Err(_) => optimize(&ctx, &mut org, &cfg),
                };
                if stats.stop == StopReason::Killed {
                    kills += 1;
                    continue;
                }
                break (stats, org);
            };
            assert!(kills >= 1, "case {case}: the failpoint never killed a run");
            assert_eq!(
                stats.final_effectiveness.to_bits(),
                full.final_effectiveness.to_bits(),
                "case {case} ({kills} kills)"
            );
            assert_eq!(stats.iterations, full.iterations, "case {case}");
            assert_eq!(stats.accepted, full.accepted, "case {case}");
            assert_eq!(stats.rounds, full.rounds, "case {case}");
            assert_eq!(stats.stop, full.stop, "case {case}");
            assert_eq!(stats.iter_stats, full.iter_stats, "case {case}");
            assert_eq!(
                org_fingerprint(&org),
                org_fingerprint(&full_org),
                "case {case} ({kills} kills)"
            );
            std::fs::remove_dir_all(&dir).ok();
        });
    }
}

#[test]
fn sharded_one_shard_is_bit_identical_across_seeds() {
    // Sharding-PR property (a): `shards = 1` routes through the ordinary
    // clustering + optimize path bit-for-bit — same arena, same tags, same
    // edges, same unit topics — whatever the lake and search seeds.
    //
    // Hold the (disarmed) failpoint scope: a concurrently running
    // failpoint test in this binary must not kill these searches.
    let _fp = dln_fault::scoped("").expect("disarm failpoints");
    let mut rng = StdRng::seed_from_u64(0x5AAD);
    for _case in 0..4 {
        let bench = TagCloudConfig {
            n_tags: 12,
            n_attrs_target: 60,
            store_values: false,
            seed: rng.random::<u64>(),
            ..TagCloudConfig::small()
        }
        .generate();
        let cfg = SearchConfig {
            max_iters: 60,
            shards: ShardPolicy::Fixed(1),
            seed: rng.random::<u64>(),
            deadline: None,
            checkpoint: None,
            ..Default::default()
        };
        let plain = OrganizerBuilder::new(&bench.lake)
            .search_config(cfg.clone())
            .build_optimized();
        let sharded = build_sharded(&bench.lake, &cfg);
        assert_eq!(sharded.n_shards(), 1);
        assert_eq!(
            sharded.built.organization.fingerprint(),
            plain.organization.fingerprint(),
            "shards = 1 must reproduce build_optimized bit-for-bit"
        );
    }
}

#[test]
fn stitched_org_incremental_evaluator_matches_fresh_at_any_thread_count() {
    // Sharding-PR property (b): the incremental parallel evaluator driven
    // over a *stitched* multi-root organization (router + routing tier +
    // copied shard structure) agrees with a fresh full evaluation to 1e-9
    // after every applied op, at 1 and 4 workers — and the final evaluator
    // state is bit-identical across those worker counts.
    //
    // Hold the (disarmed) failpoint scope: a concurrently running
    // failpoint test in this binary must not kill the sharded build.
    let _fp = dln_fault::scoped("").expect("disarm failpoints");
    let mut rng = StdRng::seed_from_u64(0x5717C4);
    for _case in 0..3 {
        let bench = TagCloudConfig {
            n_tags: 12,
            n_attrs_target: 60,
            store_values: false,
            seed: rng.random::<u64>(),
            ..TagCloudConfig::small()
        }
        .generate();
        let cfg = SearchConfig {
            max_iters: 40,
            shards: ShardPolicy::Fixed(rng.random_range(2..5u32) as usize),
            seed: rng.random::<u64>(),
            deadline: None,
            checkpoint: None,
            ..Default::default()
        };
        let sharded = build_sharded(&bench.lake, &cfg);
        assert!(sharded.n_shards() > 1, "case must exercise a real stitch");
        let ctx = &sharded.built.ctx;
        let reps = Representatives::exact(ctx);
        let nav = NavConfig::default();
        let steps = random_steps(&mut rng);
        let mut final_bits: Vec<Vec<u64>> = Vec::new();
        for threads in [1usize, 4] {
            let bits = rayon::with_num_threads(threads, || {
                let mut org = sharded.built.organization.clone();
                let mut ev = Evaluator::new(ctx, &org, nav, &reps);
                for &(kind, target_raw, _keep) in &steps {
                    let targets: Vec<_> = org.alive_ids().filter(|&s| s != org.root()).collect();
                    let target = targets[target_raw as usize % targets.len()];
                    let reach = ev.reachability();
                    let outcome = if kind == 0 {
                        ops::try_add_parent(&mut org, ctx, target, &reach)
                    } else {
                        ops::try_delete_parent(&mut org, ctx, target, &reach)
                    };
                    let Some(outcome) = outcome else { continue };
                    org.validate(ctx)
                        .expect("stitched org stays valid under ops");
                    ev.apply_delta(ctx, &org, &outcome.dirty_parents);
                    let fresh = Evaluator::new(ctx, &org, nav, &reps);
                    assert!(
                        (ev.effectiveness() - fresh.effectiveness()).abs() < 1e-9,
                        "incremental {} vs fresh {} at {threads} threads",
                        ev.effectiveness(),
                        fresh.effectiveness()
                    );
                }
                eval_bits(&ev, ctx)
            });
            final_bits.push(bits);
        }
        assert_eq!(
            final_bits[0], final_bits[1],
            "stitched-org evaluation changed with the worker count"
        );
    }
}

#[test]
fn bitset_behaves_like_btreeset() {
    let mut rng = StdRng::seed_from_u64(0xB17_5E7);
    for _case in 0..64 {
        let n = rng.random_range(0..64usize);
        let values: Vec<u32> = (0..n).map(|_| rng.random_range(0..200u32)).collect();
        let mut bs = datalake_nav::org::BitSet::new(200);
        let mut reference = BTreeSet::new();
        for v in &values {
            assert_eq!(bs.insert(*v), reference.insert(*v));
        }
        assert_eq!(bs.len(), reference.len());
        let collected: Vec<u32> = bs.iter().collect();
        let expected: Vec<u32> = reference.iter().copied().collect();
        assert_eq!(collected, expected);
        for v in 0..200u32 {
            assert_eq!(bs.contains(v), reference.contains(&v));
        }
        // Removal round-trip.
        for v in &values {
            assert_eq!(bs.remove(*v), reference.remove(v));
        }
        assert!(bs.is_empty());
    }
}

#[test]
fn bitset_union_is_set_union() {
    let mut rng = StdRng::seed_from_u64(0x0111_0111);
    for _case in 0..64 {
        let a: Vec<u32> = (0..rng.random_range(0..40usize))
            .map(|_| rng.random_range(0..128u32))
            .collect();
        let b: Vec<u32> = (0..rng.random_range(0..40usize))
            .map(|_| rng.random_range(0..128u32))
            .collect();
        let mut x = datalake_nav::org::BitSet::from_iter_with_capacity(128, a.iter().copied());
        let y = datalake_nav::org::BitSet::from_iter_with_capacity(128, b.iter().copied());
        let sa: BTreeSet<u32> = a.iter().copied().collect();
        let sb: BTreeSet<u32> = b.iter().copied().collect();
        x.union_with(&y);
        let got: BTreeSet<u32> = x.iter().collect();
        let want: BTreeSet<u32> = sa.union(&sb).copied().collect();
        assert_eq!(got, want);
        assert!(x.is_superset_of(&y));
    }
}

#[test]
fn zipf_samples_stay_in_support() {
    let mut rng = StdRng::seed_from_u64(0x21BF);
    for _case in 0..64 {
        let n = rng.random_range(1..200usize);
        let s = rng.random::<f64>() * 3.0;
        let z = Zipf::new(n, s);
        let mut sample_rng = StdRng::seed_from_u64(rng.random::<u64>());
        for _ in 0..50 {
            let v = z.sample(&mut sample_rng);
            assert!((1..=n).contains(&v));
        }
        assert!(z.mean() >= 1.0 && z.mean() <= n as f64);
    }
}

#[test]
fn mann_whitney_u_complementarity() {
    let mut rng = StdRng::seed_from_u64(0x3A33);
    for _case in 0..64 {
        let a: Vec<f64> = (0..rng.random_range(1..20usize))
            .map(|_| rng.random::<f64>() * 200.0 - 100.0)
            .collect();
        let b: Vec<f64> = (0..rng.random_range(1..20usize))
            .map(|_| rng.random::<f64>() * 200.0 - 100.0)
            .collect();
        if let Some(mw) = mann_whitney_u(&a, &b) {
            assert!((mw.u1 + mw.u2 - (a.len() * b.len()) as f64).abs() < 1e-6);
            assert!((0.0..=1.0).contains(&mw.p_value));
            // Symmetry: swapping samples swaps U statistics.
            let swapped = mann_whitney_u(&b, &a).unwrap();
            assert!((mw.u1 - swapped.u2).abs() < 1e-6);
            assert!((mw.p_value - swapped.p_value).abs() < 1e-9);
        }
    }
}

#[test]
fn topic_accumulator_merge_unmerge_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xACC);
    let random_vecs = |rng: &mut StdRng| -> Vec<Vec<f32>> {
        let n = rng.random_range(0..8usize);
        (0..n)
            .map(|_| (0..4).map(|_| rng.random::<f32>() * 10.0 - 5.0).collect())
            .collect()
    };
    for _case in 0..64 {
        let xs = random_vecs(&mut rng);
        let ys = random_vecs(&mut rng);
        let mut a = TopicAccumulator::new(4);
        for x in &xs {
            a.add(x);
        }
        let before_mean = a.mean();
        let before_count = a.count();
        let mut b = TopicAccumulator::new(4);
        for y in &ys {
            b.add(y);
        }
        a.merge(&b);
        assert_eq!(a.count(), xs.len() as u64 + ys.len() as u64);
        a.unmerge(&b);
        assert_eq!(a.count(), before_count);
        for (m1, m2) in a.mean().iter().zip(&before_mean) {
            assert!((m1 - m2).abs() < 1e-3);
        }
    }
}

#[test]
fn cosine_bounds_and_symmetry() {
    let mut rng = StdRng::seed_from_u64(0xC05);
    for _case in 0..64 {
        let a: Vec<f32> = (0..8).map(|_| rng.random::<f32>() * 20.0 - 10.0).collect();
        let b: Vec<f32> = (0..8).map(|_| rng.random::<f32>() * 20.0 - 10.0).collect();
        let c = cosine(&a, &b);
        assert!((-1.0..=1.0).contains(&c));
        assert!((c - cosine(&b, &a)).abs() < 1e-6);
    }
}
