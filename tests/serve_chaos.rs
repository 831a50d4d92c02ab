//! Chaos suite for the navigation serving layer: a fleet of simulated
//! participants hammers one `NavService` from many threads while faults
//! (slow requests, dropped sessions, widened swap races) and hot-swap
//! republications are injected, and the suite asserts the robustness
//! contract:
//!
//! * **No silent session loss** — every session the service loses is
//!   either TTL-evicted or injected by `serve.drop_session`, and each loss
//!   surfaces to the client as a *typed* error it recovers from.
//! * **Hot-swap safety** — after any number of mid-run publications, every
//!   live session's path is valid on its own snapshot (pinned or
//!   migrated); nobody observes a torn organization.
//! * **Graceful degradation** — deadline-hit requests return well-formed,
//!   label-complete responses flagged `degraded`, never errors.
//! * **Determinism** — with a logical clock and keyed fault draws, all
//!   deterministic counters agree between a 1-thread serial run and a
//!   concurrent run of the same fleet, under the same armed failpoints.
//!
//! CI runs this binary with `DLN_FAILPOINTS` arming the serve failpoints
//! at various probabilities and with `DLN_THREADS` 1 and 4; the assertions
//! hold in every cell of that matrix.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use datalake_nav::org::{clustering_org, flat_org, NavConfig, OrgContext};
use datalake_nav::prelude::*;
use datalake_nav::serve::{ManualClock, SwapOutcome};
use datalake_nav::study::{run_concurrent, run_serial, AgentConfig, Scenario};

const N_AGENTS: u64 = 8;

fn setup() -> (DataLake, Scenario, OrgContext) {
    let s = SocrataConfig::small().generate();
    let tags: Vec<TagId> = s.lake.tag_ids().take(3).collect();
    let sc = Scenario::from_tags(&s.lake, "chaos", &tags, 0.6);
    let ctx = OrgContext::full(&s.lake);
    (s.lake, sc, ctx)
}

fn fleet(budget: usize) -> Vec<AgentConfig> {
    (0..N_AGENTS)
        .map(|i| AgentConfig {
            budget,
            seed: 1000 + 7919 * i,
            ..Default::default()
        })
        .collect()
}

/// A service whose gate can never shed this fleet (shedding depends on
/// real arrival timing, which the determinism assertions must exclude).
fn wide_config() -> ServeConfig {
    ServeConfig {
        max_sessions: 64,
        max_concurrency: N_AGENTS as usize,
        queue_depth: 2 * N_AGENTS as usize,
        deadline_ms: Some(200),
        slow_penalty_ms: 1000,
        ..ServeConfig::default()
    }
}

fn service(ctx: &OrgContext, cfg: ServeConfig) -> NavService {
    NavService::with_clock(
        ctx.clone(),
        clustering_org(ctx),
        NavConfig::default(),
        cfg,
        Arc::new(ManualClock::new(0)),
    )
}

/// Deterministic counters only: everything in a `ServedOutcome` is already
/// interleaving-independent, plus the service-side totals that are.
fn service_fingerprint(svc: &NavService) -> Vec<(&'static str, u64)> {
    let st = svc.stats();
    vec![
        ("requests", st.requests.load(Ordering::Relaxed)),
        ("degraded", st.degraded.load(Ordering::Relaxed)),
        ("opened", st.opened.load(Ordering::Relaxed)),
        ("closed", st.closed.load(Ordering::Relaxed)),
        ("dropped_fault", st.dropped_fault.load(Ordering::Relaxed)),
    ]
}

/// The core acceptance property: under armed failpoints (whatever CI put
/// in `DLN_FAILPOINTS` — plus a floor this test arms itself), a serial and
/// a concurrent run of the same 8-agent fleet agree on every deterministic
/// outcome and nobody loses a session without an injected cause.
#[test]
fn serial_and_concurrent_chaos_runs_agree() {
    let (lake, sc, ctx) = setup();
    // Arm a representative chaos floor unless the environment already
    // armed serve failpoints (the CI matrix does; scoped() would override
    // the env spec, so only set the floor when none is armed).
    let _fp = if dln_fault::is_armed("serve.drop_session") || dln_fault::is_armed("serve.slow") {
        None
    } else {
        Some(
            dln_fault::scoped("serve.slow:0.15:11,serve.drop_session:0.04:12").expect("valid spec"),
        )
    };
    let agents = fleet(60);
    let retry = RetryPolicy::default();

    let svc_a = service(&ctx, wide_config());
    let serial = run_serial(&svc_a, &lake, &sc, &agents, &retry);
    let fp_a = service_fingerprint(&svc_a);

    let svc_b = service(&ctx, wide_config());
    let conc = run_concurrent(&svc_b, &lake, &sc, &agents, &retry);
    let fp_b = service_fingerprint(&svc_b);

    assert_eq!(
        serial, conc,
        "agent outcomes must not depend on interleaving"
    );
    assert_eq!(
        fp_a, fp_b,
        "service counters must not depend on interleaving"
    );

    // Loss accounting: every lost session was injected (no TTL pressure
    // here — the manual clock never advances).
    for (i, o) in conc.iter().enumerate() {
        assert_eq!(
            o.lost_sessions, o.injected_losses,
            "agent {i}: a session was lost without an injected cause"
        );
        assert!(o.steps > 0, "agent {i} made no progress");
    }
    let total_injected: u64 = conc.iter().map(|o| o.injected_losses).sum();
    assert_eq!(
        svc_b.stats().dropped_fault.load(Ordering::Relaxed),
        total_injected,
        "service-side drop count must equal client-observed injected losses"
    );
    // Session accounting closes: every open is matched by a close, a drop,
    // or survives to the end (agents close their final session).
    let st = svc_b.stats();
    assert_eq!(
        st.opened.load(Ordering::Relaxed),
        st.closed.load(Ordering::Relaxed)
            + st.dropped_fault.load(Ordering::Relaxed)
            + svc_b.live_sessions() as u64,
        "sessions are conserved"
    );
}

/// Hot-swap under concurrent traffic: publishes land mid-run while agents
/// walk; afterwards, every surviving session's path is valid on its own
/// snapshot and the service answered every request from a coherent epoch.
#[test]
fn hot_swap_under_concurrent_traffic_never_tears_a_session() {
    let (lake, sc, ctx) = setup();
    // Widen the race window on every request.
    let _fp = dln_fault::scoped("serve.swap_race:1.0:5").expect("valid spec");
    let cfg = ServeConfig {
        deadline_ms: None,
        ..wide_config()
    };
    let svc = service(&ctx, cfg);
    let agents = fleet(120);
    let retry = RetryPolicy::default();

    // A sentinel session opened at epoch 0 and walked one level down: it
    // stays pinned through every publish (nobody steps it until the dust
    // settles), guaranteeing at least one cross-epoch migration happens
    // regardless of how the scheduler interleaves the fleet.
    let sentinel = svc.open_session_keyed(77).expect("sentinel");
    let view = svc
        .step(sentinel, &StepRequest::action(StepAction::Stay))
        .expect("sentinel view");
    svc.step(
        sentinel,
        &StepRequest::action(StepAction::Descend(view.children[0].state)),
    )
    .expect("sentinel descend");

    let done = std::sync::atomic::AtomicBool::new(false);
    let outcomes = std::thread::scope(|scope| {
        let svc = &svc;
        let ctx = &ctx;
        let done = &done;
        let publisher = scope.spawn(move || {
            // Wait for the whole fleet to hold sessions, then alternate
            // structurally different organizations under them.
            while svc.stats().opened.load(Ordering::Relaxed) < 1 + N_AGENTS {
                std::thread::yield_now();
            }
            for i in 0..6u32 {
                let org = if i % 2 == 0 {
                    flat_org(ctx)
                } else {
                    clustering_org(ctx)
                };
                svc.publish(ctx.clone(), org, NavConfig::default())
                    .expect("publish");
                for _ in 0..50 {
                    std::thread::yield_now();
                }
            }
        });
        // Continuously audit live paths *while* swaps and steps race.
        let checker = scope.spawn(move || {
            let mut max_checked = 0;
            while !done.load(Ordering::Relaxed) {
                let (checked, invalid) = svc.validate_live_paths();
                assert_eq!(invalid, 0, "a hot-swap tore {invalid}/{checked} live paths");
                max_checked = max_checked.max(checked);
                std::thread::yield_now();
            }
            max_checked
        });
        let outcomes = run_concurrent(svc, &lake, &sc, &agents, &retry);
        publisher.join().expect("publisher panicked");
        done.store(true, Ordering::Relaxed);
        let max_checked = checker.join().expect("checker panicked");
        assert!(max_checked >= 1, "the audit must have seen live sessions");
        outcomes
    });

    // The pinned sentinel now steps across all six publishes at once:
    // typed migration, valid path, no session loss.
    let resp = svc
        .step(sentinel, &StepRequest::action(StepAction::Stay))
        .expect("sentinel survives the swaps");
    match resp.swap {
        SwapOutcome::Migrated {
            from_epoch,
            to_epoch,
            lost_depth,
        } => {
            assert_eq!((from_epoch, to_epoch), (0, 6));
            assert!(lost_depth <= 1, "replay loses at most the unmatched suffix");
        }
        other => panic!("sentinel must migrate, got {other:?}"),
    }
    assert_eq!(resp.epoch, 6);
    let (checked, invalid) = svc.validate_live_paths();
    assert_eq!((checked, invalid), (1, 0), "sentinel path valid post-swap");
    assert!(svc.stats().migrated.load(Ordering::Relaxed) >= 1);
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(o.lost_sessions, 0, "agent {i} lost a session to a swap");
        assert_eq!(o.injected_losses, 0);
        assert!(o.steps > 0);
    }
    assert_eq!(svc.epoch(), 6);
    svc.close_session(sentinel).expect("sentinel close");
}

/// Deadline pressure: with `serve.slow` always on, every response is
/// degraded — and still complete (labels for every child, a label for the
/// state, no error). The paper's user would rather see an unranked list
/// than a spinner.
#[test]
fn deadline_hits_degrade_but_stay_well_formed() {
    let (_lake, _sc, ctx) = setup();
    let _fp = dln_fault::scoped("serve.slow:1.0:3").expect("valid spec");
    let svc = service(&ctx, wide_config());
    let sid = svc.open_session_keyed(9).expect("open");
    let q: Vec<f32> = ctx.attr(0).unit_topic.clone();
    let mut req = StepRequest::action(StepAction::Stay);
    req.query = Some(q);
    req.list_tables = true;
    for _ in 0..10 {
        let resp = svc.step(sid, &req).expect("degraded, not dead");
        assert!(resp.degraded);
        assert!(!resp.label.is_empty());
        assert!(!resp.children.is_empty());
        for c in &resp.children {
            assert!(!c.label.is_empty(), "degraded child views keep labels");
            assert!(c.prob.is_none(), "no ranking under a blown deadline");
        }
        assert_eq!(resp.swap, SwapOutcome::Current);
    }
    assert_eq!(svc.stats().degraded.load(Ordering::Relaxed), 10);
}

/// Load shedding end-to-end: a gate sized 1/0 sheds the second concurrent
/// request with a typed `Overloaded`, and the retry helper recovers once
/// capacity frees up.
#[test]
fn overload_sheds_typed_and_retry_recovers() {
    let (_lake, _sc, ctx) = setup();
    let cfg = ServeConfig {
        max_concurrency: 1,
        queue_depth: 0,
        deadline_ms: None,
        ..wide_config()
    };
    let svc = service(&ctx, cfg);
    let sid = svc.open_session_keyed(21).expect("open");
    let req = StepRequest::action(StepAction::Stay);

    // Hold the only slot, then watch a step get shed...
    let permit = svc.gate().admit().expect("slot");
    match svc.step(sid, &req) {
        Err(ServeError::Overloaded { retry_after_ms }) => assert!(retry_after_ms > 0),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // ...and a retrying client succeed after the slot frees mid-backoff.
    let retry = RetryPolicy {
        max_attempts: 4,
        ..RetryPolicy::default()
    };
    let mut slept = 0u32;
    let mut permit = Some(permit);
    let out = retry.run(
        |_ms| {
            slept += 1;
            permit.take(); // first backoff releases the held slot
        },
        || svc.step(sid, &req),
    );
    assert!(out.is_ok(), "retry must land once capacity returns");
    assert!(slept >= 1);
    assert!(svc.stats().overloaded.load(Ordering::Relaxed) >= 2);
}

/// A TagCloud-small service on a manual clock.
fn tagcloud_service(cfg: ServeConfig) -> (NavService, OrgContext) {
    let bench = TagCloudConfig::small().generate();
    let ctx = OrgContext::full(&bench.lake);
    let svc = NavService::with_clock(
        ctx.clone(),
        clustering_org(&ctx),
        NavConfig::default(),
        cfg,
        Arc::new(ManualClock::new(0)),
    );
    (svc, ctx)
}

/// `serve.slow` charges virtual milliseconds against the deadline: the
/// response degrades (cached labels, no ranking, no tables) instead of
/// erroring, and a per-request deadline override lifts it. Every step
/// runs under a scope of its own, so an armed CI schedule cannot reach it.
#[test]
fn deadline_degrades_instead_of_erroring() {
    let cfg = ServeConfig {
        deadline_ms: Some(100),
        slow_penalty_ms: 500,
        ..ServeConfig::default()
    };
    let (svc, ctx) = tagcloud_service(cfg);
    let sid = svc.open_session_keyed(11).unwrap();
    let mut req = StepRequest::action(StepAction::Stay);
    req.query = Some(ctx.attr(0).unit_topic.clone());
    req.list_tables = true;

    // Within budget: full response.
    let full = {
        let _fp = dln_fault::scoped("").expect("empty spec parses");
        svc.step(sid, &req).unwrap()
    };
    assert!(!full.degraded);
    assert!(full.children.iter().all(|c| c.prob.is_some()));

    // serve.slow charges 500 virtual ms against a 100 ms deadline.
    let _fp = dln_fault::scoped("serve.slow:1.0:1").unwrap();
    let slow = svc.step(sid, &req).unwrap();
    assert!(slow.degraded);
    assert_eq!(slow.children.len(), full.children.len());
    assert!(slow.children.iter().all(|c| c.prob.is_none()));
    assert!(
        slow.children.iter().all(|c| !c.label.is_empty()),
        "degraded responses still carry cached labels"
    );
    assert!(slow.tables.is_empty(), "table listing is shed first");
    assert_eq!(svc.stats().degraded.load(Ordering::Relaxed), 1);

    // Per-request override can lift the default deadline.
    let mut roomy = req.clone();
    roomy.deadline_ms = Some(10_000);
    assert!(!svc.step(sid, &roomy).unwrap().degraded);
}

/// `serve.drop_session` tears the session down mid-request, as a crashed
/// worker would: the client sees a typed, injected `SessionExpired`.
#[test]
fn drop_session_failpoint_is_a_typed_injected_loss() {
    let (svc, _ctx) = tagcloud_service(ServeConfig::default());
    let sid = svc.open_session_keyed(42).unwrap();
    let _fp = dln_fault::scoped("serve.drop_session:1.0:1").unwrap();
    let err = svc
        .step(sid, &StepRequest::action(StepAction::Stay))
        .unwrap_err();
    assert!(matches!(
        err,
        ServeError::SessionExpired { injected: true, .. }
    ));
    assert_eq!(svc.live_sessions(), 0);
    assert_eq!(svc.stats().dropped_fault.load(Ordering::Relaxed), 1);
}
