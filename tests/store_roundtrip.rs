//! Store durability suite (own binary: the failpoint registry is
//! process-global, so the corruption schedules here must not share a
//! process with other suites).
//!
//! * **Byte-flip exhaustion** — flipping *any single byte* of a store
//!   file makes `open_store` fail with a typed `Corrupt`, never a panic,
//!   never a silently-wrong snapshot: every byte of the file (header,
//!   payloads, checksums, inter-section padding) is covered by some
//!   validation.
//! * **Truncation** — every prefix of a store file is typed-corrupt.
//! * **Torn writes** — the `store.torn` failpoint produces a file that
//!   fails open; `open_store_with_fallback` then serves the rotated
//!   `.prev` generation.
//! * **Serving equivalence** — a navigation session served from a mapped
//!   snapshot is bit-identical (states, labels, probabilities, tables) to
//!   the same session served from the in-memory snapshot, across many
//!   seeded query walks (in-workspace property-test harness; the registry
//!   `proptest` crate is unavailable offline).

use std::path::PathBuf;
use std::sync::Arc;

use datalake_nav::org::{
    clustering_org, open_store, open_store_with_fallback, save_store, NavConfig, OrgContext,
};
use datalake_nav::prelude::*;
use datalake_nav::serve::clock::ManualClock;
use datalake_nav::serve::Clock;
use dln_fault::DlnError;

fn tiny_ctx() -> OrgContext {
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

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dln_store_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Disarm every failpoint for the guard's lifetime. CI arms hostile
/// schedules (e.g. `store.torn:0.5`) for this whole binary; tests that
/// *require* clean saves pin their own schedule instead of inheriting the
/// environment, exactly like the scoped torn/mmap sections pin theirs.
fn clean() -> dln_fault::ScopedFailpoints {
    dln_fault::scoped("").expect("empty spec parses")
}

#[test]
fn every_single_byte_flip_is_typed_corrupt() {
    let _fp = clean();
    let ctx = tiny_ctx();
    let org = clustering_org(&ctx);
    let path = tmp("flip.dlnstore");
    save_store(&path, &ctx, &org, NavConfig::default()).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    assert!(open_store(&path).is_ok(), "pristine file opens");

    let flipped_path = tmp("flip_mut.dlnstore");
    for at in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[at] ^= 0x01;
        std::fs::write(&flipped_path, &bytes).unwrap();
        match open_store(&flipped_path) {
            Err(DlnError::Corrupt { .. }) => {}
            Err(other) => panic!("flip at byte {at}: wrong error type {other}"),
            Ok(_) => panic!("flip at byte {at} of {} went undetected", pristine.len()),
        }
    }
}

#[test]
fn every_truncation_is_typed_corrupt() {
    let _fp = clean();
    let ctx = tiny_ctx();
    let org = clustering_org(&ctx);
    let path = tmp("trunc.dlnstore");
    save_store(&path, &ctx, &org, NavConfig::default()).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    let cut_path = tmp("trunc_mut.dlnstore");
    // Every prefix would be O(n²) I/O for no extra coverage; probe each
    // validation regime: empty, mid-magic, mid-header, just-short-of-
    // header, every section boundary neighbourhood, and len-1.
    let mut cuts = vec![0, 1, 4, 8, 24, 100, pristine.len() / 2, pristine.len() - 1];
    let mut at = 64;
    while at < pristine.len() {
        cuts.push(at);
        cuts.push(at - 1);
        at += 512;
    }
    for &cut in &cuts {
        std::fs::write(&cut_path, &pristine[..cut]).unwrap();
        match open_store(&cut_path) {
            Err(DlnError::Corrupt { .. }) => {}
            Err(other) => panic!("truncation to {cut} bytes: wrong error type {other}"),
            Ok(_) => panic!("truncation to {cut} bytes went undetected"),
        }
    }
}

#[test]
fn torn_write_rotates_and_fallback_recovers() {
    let ctx = tiny_ctx();
    let org = clustering_org(&ctx);
    let path = tmp("torn.dlnstore");
    {
        let _fp = clean();
        save_store(&path, &ctx, &org, NavConfig { gamma: 5.0 }).unwrap();
    }
    {
        let _fp = dln_fault::scoped("store.torn:1.0:0").unwrap();
        save_store(&path, &ctx, &org, NavConfig { gamma: 9.0 }).unwrap();
    }
    // The newest generation is torn...
    assert!(matches!(open_store(&path), Err(DlnError::Corrupt { .. })));
    // ...but the rotated previous generation serves.
    let recovered = open_store_with_fallback(&path).unwrap();
    assert_eq!(recovered.nav().gamma, 5.0);
    assert_eq!(recovered.fingerprint(), org.fingerprint());
    // A healthy re-save heals the chain for direct opens again.
    {
        let _fp = clean();
        save_store(&path, &ctx, &org, NavConfig { gamma: 7.0 }).unwrap();
    }
    assert_eq!(open_store(&path).unwrap().nav().gamma, 7.0);
}

#[test]
fn mmap_failpoint_heap_fallback_serves_identically() {
    let ctx = tiny_ctx();
    let org = clustering_org(&ctx);
    let path = tmp("heap.dlnstore");
    let mapped = {
        let _fp = clean();
        save_store(&path, &ctx, &org, NavConfig::default()).unwrap();
        open_store(&path).unwrap()
    };
    let heaped = {
        let _fp = dln_fault::scoped("store.mmap:1.0:0").unwrap();
        open_store(&path).unwrap()
    };
    assert!(!heaped.is_mmap(), "failpoint forces the heap copy");
    assert_eq!(mapped.fingerprint(), heaped.fingerprint());
    let q = ctx.attr(0).unit_topic.clone();
    for &sid in mapped.topo_order() {
        assert_eq!(mapped.label_of(sid, 2), heaped.label_of(sid, 2));
        let (a, b) = (
            datalake_nav::org::transition_probs_over(
                mapped.children(sid),
                mapped.nav(),
                mapped.child_mat(sid),
                &q,
            ),
            datalake_nav::org::transition_probs_over(
                heaped.children(sid),
                heaped.nav(),
                heaped.child_mat(sid),
                &q,
            ),
        );
        assert_eq!(a.len(), b.len());
        for ((s1, p1), (s2, p2)) in a.iter().zip(&b) {
            assert_eq!(s1, s2);
            assert_eq!(p1.to_bits(), p2.to_bits());
        }
    }
}

#[test]
fn mapped_resave_preserves_exact_bytes() {
    let _fp = clean();
    let ctx = tiny_ctx();
    let org = clustering_org(&ctx);
    let path = tmp("resave.dlnstore");
    save_store(&path, &ctx, &org, NavConfig::default()).unwrap();
    let mapped = open_store(&path).unwrap();
    let copy = tmp("resave_copy.dlnstore");
    mapped.save_to(&copy).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&copy).unwrap(),
        "re-publishing a mapped snapshot is byte-exact"
    );
}

/// Drive the same seeded greedy navigation session against two services
/// and assert every observable response field is identical (floating
/// point compared as exact bits).
fn assert_sessions_identical(a: &NavService, b: &NavService, ctx: &OrgContext, seed: u64) {
    let sa = a.open_session_keyed(seed).unwrap();
    let sb = b.open_session_keyed(seed).unwrap();
    let n_attrs = ctx.n_attrs() as u64;
    let mut cursor = seed;
    for step in 0..8 {
        cursor = cursor
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let attr = (cursor >> 33) % n_attrs;
        let mut req = StepRequest::action(StepAction::Stay);
        req.query = Some(ctx.attr(attr as u32).unit_topic.clone());
        req.list_tables = true;
        let ra = a.step(sa, &req).unwrap();
        let rb = b.step(sb, &req).unwrap();
        assert_eq!(
            ra.state, rb.state,
            "seed {seed} step {step}: cursor diverged"
        );
        assert_eq!(ra.depth, rb.depth);
        assert_eq!(
            ra.label, rb.label,
            "seed {seed} step {step}: label diverged"
        );
        assert_eq!(ra.at_tag_state, rb.at_tag_state);
        assert_eq!(
            ra.tables, rb.tables,
            "seed {seed} step {step}: tables diverged"
        );
        assert_eq!(ra.children.len(), rb.children.len());
        for (ca, cb) in ra.children.iter().zip(&rb.children) {
            assert_eq!(ca.state, cb.state);
            assert_eq!(ca.label, cb.label);
            assert_eq!(
                ca.prob.map(f64::to_bits),
                cb.prob.map(f64::to_bits),
                "seed {seed} step {step}: probability bits diverged at state {}",
                ca.state.0
            );
        }
        // Greedy descent on the (identical) ranking; reset at leaves.
        let best = ra
            .children
            .iter()
            .max_by(|x, y| {
                x.prob
                    .partial_cmp(&y.prob)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|c| c.state);
        let action = match best {
            Some(child) => StepAction::Descend(child),
            None => StepAction::Reset,
        };
        let da = a.step(sa, &StepRequest::action(action)).unwrap();
        let db = b.step(sb, &StepRequest::action(action)).unwrap();
        assert_eq!(da.state, db.state);
        assert_eq!(da.depth, db.depth);
    }
    a.close_session(sa).unwrap();
    b.close_session(sb).unwrap();
}

#[test]
fn mapped_sessions_are_bit_identical_to_owned_sessions() {
    let _fp = clean();
    let ctx = tiny_ctx();
    let org = clustering_org(&ctx);
    let nav = NavConfig::default();
    let path = tmp("sessions.dlnstore");
    save_store(&path, &ctx, &org, nav).unwrap();

    let clock = Arc::new(ManualClock::new(0));
    let owned = NavService::with_clock(
        ctx.clone(),
        org,
        nav,
        ServeConfig::default(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    let mapped = NavService::open_path_with_clock(
        &path,
        ServeConfig::default(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    )
    .unwrap();
    assert!(mapped.snapshot().is_mapped());
    assert!(!owned.snapshot().is_mapped());

    for seed in 1..=12u64 {
        assert_sessions_identical(&owned, &mapped, &ctx, seed);
    }
}

#[test]
fn live_sessions_migrate_onto_a_mapped_epoch() {
    // The existing hot-swap machinery works unchanged when the new epoch
    // is a mapped store file: sessions replay their path by tag-set
    // identity onto the mapped snapshot.
    let _fp = clean();
    let ctx = tiny_ctx();
    let org = clustering_org(&ctx);
    let nav = NavConfig::default();
    let path = tmp("migrate.dlnstore");
    save_store(&path, &ctx, &org, nav).unwrap();

    let svc = NavService::new(ctx.clone(), org, nav, ServeConfig::default());
    let sid = svc.open_session().unwrap();
    // Walk one level down before the swap.
    let view = svc
        .step(sid, &StepRequest::action(StepAction::Stay))
        .unwrap();
    let child = view.children[0].state;
    svc.step(sid, &StepRequest::action(StepAction::Descend(child)))
        .unwrap();

    let epoch = svc.publish_path(&path).unwrap();
    assert_eq!(epoch, 1);
    let resp = svc
        .step(sid, &StepRequest::action(StepAction::Stay))
        .unwrap();
    assert_eq!(resp.epoch, 1);
    match resp.swap {
        datalake_nav::serve::SwapOutcome::Migrated {
            from_epoch,
            to_epoch,
            lost_depth,
        } => {
            assert_eq!((from_epoch, to_epoch), (0, 1));
            assert_eq!(
                lost_depth, 0,
                "identical structure: the path replays losslessly onto the mapped epoch"
            );
        }
        other => panic!("expected migration, got {other:?}"),
    }
    assert_eq!(resp.depth, 1);
    let (checked, invalid) = svc.validate_live_paths();
    assert_eq!((checked, invalid), (1, 0));
    // save_current round-trips the mapped snapshot back out.
    let out = tmp("migrate_out.dlnstore");
    svc.save_current(&out).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&out).unwrap(),
        "publishing a mapped epoch and re-saving it is byte-exact"
    );
}
