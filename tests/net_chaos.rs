//! Chaos suite for the network front-end (`dln-net`): real sockets, real
//! reactor, injected transport faults — and the acceptance contract of
//! the wire layer:
//!
//! * **Bit-identity** — the same seeded walk driven through `net::Client`
//!   and through `NavService` directly produces `f64::to_bits`-equal
//!   responses, under every `net.*` failpoint schedule. Transport faults
//!   (torn reads, dropped conns, partial writes, accept failures) are
//!   recovered by reconnect + resend, and the server's exactly-once
//!   response cache guarantees a retried step is a replay, never a
//!   double-apply.
//! * **Hot-swap coexistence** — a republish while wire sessions are
//!   mid-walk migrates them exactly like library sessions: typed
//!   `Migrated` outcome, zero invalid live paths.
//! * **Graceful shutdown** — in-flight dispatches drain and every wire
//!   session is closed, freeing its registry slot, including sessions
//!   resumed over a later connection.
//! * **Shedding and hygiene** — accepts past `max_conns` get a typed
//!   `Overloaded` frame; garbage bytes sever exactly one connection and
//!   leave the server healthy; idle connections are reaped on the
//!   injected clock without touching their sessions, and the same sweep
//!   drops the cache entries of sessions the service has evicted.
//!
//! The failpoint registry is process-global, so this suite has its own
//! binary; the CI `chaos` matrix re-runs it with `DLN_FAILPOINTS`
//! arming each `net.*` schedule (and `--test-threads=1`, since an
//! env-armed run must not race the scoped overrides below).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use datalake_nav::net::{Client, NetConfig, NetServer};
use datalake_nav::org::{clustering_org, flat_org, NavConfig, OrgContext};
use datalake_nav::prelude::*;
use datalake_nav::serve::{ManualClock, ServeResult, SwapOutcome, WallClock};

fn build_service() -> (NavService, OrgContext) {
    let bench = TagCloudConfig::small().generate();
    let ctx = OrgContext::full(&bench.lake);
    let org = clustering_org(&ctx);
    let cfg = ServeConfig {
        // Wall-clock deadlines would make degradation (and thus the
        // response bits) timing-dependent; identity tests need them off.
        deadline_ms: None,
        ..ServeConfig::default()
    };
    (
        NavService::new(ctx.clone(), org, NavConfig::default(), cfg),
        ctx,
    )
}

fn start_server(svc: Arc<NavService>, config: NetConfig) -> NetServer {
    NetServer::start(svc, config, Arc::new(WallClock::new())).expect("server starts")
}

fn test_client(addr: std::net::SocketAddr) -> Client {
    let mut c = Client::connect(addr.to_string()).expect("client connects");
    // Chaos schedules tear connections with probability ~0.3 per attempt;
    // a deep reconnect budget makes the suite's failure odds negligible
    // without masking real bugs (a correct server converges in 1-2).
    c.max_reconnects = 20;
    c
}

/// Everything in a step response except the session id, with floats as
/// IEEE-754 bits. Session ids are the one intentionally non-identical
/// field: the two services allocate them independently (and a lost `Open`
/// response legitimately burns an id on the server).
type StepFingerprint = (
    u64,                             // epoch
    u32,                             // state
    u64,                             // depth
    String,                          // label
    Option<u32>,                     // at_tag_state
    Vec<(u32, String, Option<u64>)>, // children: (state, label, prob bits)
    Vec<(u32, u64)>,                 // tables
    bool,                            // degraded
);

fn fingerprint(r: &StepResponse) -> StepFingerprint {
    (
        r.epoch,
        r.state.0,
        r.depth as u64,
        r.label.clone(),
        r.at_tag_state,
        r.children
            .iter()
            .map(|c| (c.state.0, c.label.clone(), c.prob.map(f64::to_bits)))
            .collect(),
        r.tables.iter().map(|&(t, n)| (t.0, n as u64)).collect(),
        r.degraded,
    )
}

/// Drive one deterministic seeded walk through `step`, returning the
/// fingerprint of every response. The action schedule is a pure function
/// of the seed: descend when children exist, backtrack every 5th step,
/// attach a query every 3rd, list tables every 4th.
fn drive_walk(
    mut step: impl FnMut(&StepRequest) -> ServeResult<StepResponse>,
    query: &[f32],
    steps: usize,
    seed: u64,
) -> Vec<StepFingerprint> {
    let mut x = seed;
    let mut next = move || {
        // SplitMix64: deterministic, dependency-free.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut out = Vec::with_capacity(steps + 1);
    let first = step(&StepRequest::action(StepAction::Stay)).expect("first view");
    let mut children: Vec<_> = first.children.iter().map(|c| c.state).collect();
    out.push(fingerprint(&first));
    for i in 0..steps {
        let action = if i % 5 == 4 || children.is_empty() {
            StepAction::Backtrack
        } else {
            StepAction::Descend(children[(next() % children.len() as u64) as usize])
        };
        let req = StepRequest {
            action,
            query: (i % 3 == 0).then(|| query.to_vec()),
            deadline_ms: None,
            list_tables: i % 4 == 0,
        };
        let resp = step(&req).expect("walk step");
        children = resp.children.iter().map(|c| c.state).collect();
        out.push(fingerprint(&resp));
    }
    out
}

/// The headline acceptance property: a wire walk and a library walk over
/// identically built services produce bit-identical responses — under
/// whatever `net.*` schedule CI armed, or a local floor arming all four.
#[test]
fn wire_walk_is_bit_identical_to_library_walk_under_chaos() {
    let env_armed = [
        "net.accept_fail",
        "net.read_torn",
        "net.write_partial",
        "net.conn_drop",
    ]
    .iter()
    .any(|s| dln_fault::is_armed(s));
    let _fp = if env_armed {
        None
    } else {
        Some(
            dln_fault::scoped(
                "net.accept_fail:0.05:3,net.read_torn:0.2:5,net.write_partial:0.3:7,net.conn_drop:0.2:9",
            )
            .expect("valid spec"),
        )
    };

    let (svc_local, ctx) = build_service();
    let (svc_remote, _) = build_service();
    let query: Vec<f32> = ctx.attr(0).unit_topic.clone();

    // Library walk: the typed methods, directly.
    let sid = svc_local.open_session_keyed(7).expect("local open");
    let local = drive_walk(|req| svc_local.step(sid, req), &query, 40, 0xDA7A);
    svc_local.close_session(sid).expect("local close");

    // Wire walk: every step a frame through the reactor, with transport
    // faults injected underneath.
    let server = start_server(Arc::new(svc_remote), NetConfig::default());
    let mut client = test_client(server.local_addr());
    let wid = client.open_keyed(7).expect("wire open");
    let wire = drive_walk(|req| client.step(wid, req), &query, 40, 0xDA7A);
    client.close(wid).expect("wire close");

    assert_eq!(
        local.len(),
        wire.len(),
        "both walks answer every scheduled step"
    );
    for (i, (l, w)) in local.iter().zip(&wire).enumerate() {
        assert_eq!(l, w, "step {i}: wire response diverged from library");
    }
    server.shutdown();
}

/// Torn-connection recovery is *exactly-once*: with `net.conn_drop`
/// always-on, every step's first application kills the connection after
/// dispatch but before the response — the client's resend must observe
/// the cached response, and the walk must advance one level per step
/// (a double-apply would descend twice).
#[test]
fn conn_drop_replays_from_cache_never_double_applies() {
    let _fp = dln_fault::scoped("net.conn_drop:1.0:13").expect("valid spec");
    let (svc, _ctx) = build_service();
    let svc = Arc::new(svc);
    let server = start_server(Arc::clone(&svc), NetConfig::default());
    let mut client = test_client(server.local_addr());

    let sid = client.open().expect("open");
    let root = client
        .step(sid, &StepRequest::action(StepAction::Stay))
        .expect("root view");
    let mut expected_depth = 0u64;
    let mut children: Vec<_> = root.children.iter().map(|c| c.state).collect();
    for _ in 0..6 {
        let Some(&target) = children.first() else {
            break;
        };
        let resp = client
            .step(sid, &StepRequest::action(StepAction::Descend(target)))
            .expect("descend");
        expected_depth += 1;
        assert_eq!(
            resp.depth as u64, expected_depth,
            "a double-applied descend would overshoot the depth"
        );
        assert_eq!(resp.state, target, "the replayed response is the original");
        children = resp.children.iter().map(|c| c.state).collect();
    }
    assert!(
        expected_depth > 0,
        "the small org must have at least a level"
    );
    let stats = server.stats();
    assert!(
        stats.dedup_hits.load(Ordering::Relaxed) >= expected_depth,
        "every dropped conn's resend must be served from the cache"
    );
    client.close(sid).expect("close");
    server.shutdown();
}

/// A republish lands while wire sessions are mid-walk: the next wire step
/// migrates with a typed outcome and the audit sees zero invalid paths —
/// the hot-swap contract, unchanged by the wire.
#[test]
fn republish_migrates_wire_sessions_with_zero_torn_paths() {
    let _fp = dln_fault::scoped("net.write_partial:0.5:21").expect("valid spec");
    let (svc, ctx) = build_service();
    let svc = Arc::new(svc);
    let server = start_server(Arc::clone(&svc), NetConfig::default());
    let mut client = test_client(server.local_addr());

    let sid = client.open().expect("open");
    let root = client
        .step(sid, &StepRequest::action(StepAction::Stay))
        .expect("root");
    client
        .step(
            sid,
            &StepRequest::action(StepAction::Descend(root.children[0].state)),
        )
        .expect("descend");

    let epoch = svc
        .publish(ctx.clone(), flat_org(&ctx), NavConfig::default())
        .expect("publish");
    assert_eq!(epoch, 1);

    let resp = client
        .step(sid, &StepRequest::action(StepAction::Stay))
        .expect("post-publish step");
    assert_eq!(resp.epoch, 1, "the wire session follows the publish");
    match resp.swap {
        SwapOutcome::Migrated {
            from_epoch,
            to_epoch,
            ..
        } => {
            assert_eq!((from_epoch, to_epoch), (0, 1));
        }
        other => panic!("wire session must migrate on republish, got {other:?}"),
    }
    let (checked, invalid) = svc.validate_live_paths();
    assert!(checked >= 1, "the wire session is live and audited");
    assert_eq!(invalid, 0, "republish must not tear a wire session");
    client.close(sid).expect("close");
    server.shutdown();
}

/// Graceful shutdown closes every wire session, even though the clients
/// never sent `Close`.
#[test]
fn shutdown_closes_every_wire_session() {
    let _fp = dln_fault::scoped("net.write_partial:0.0:1").expect("valid spec");
    let (svc, _ctx) = build_service();
    let svc = Arc::new(svc);
    let server = start_server(Arc::clone(&svc), NetConfig::default());

    let mut clients = Vec::new();
    for _ in 0..3 {
        let mut c = test_client(server.local_addr());
        let sid = c.open().expect("open");
        let root = c
            .step(sid, &StepRequest::action(StepAction::Stay))
            .expect("root");
        c.step(
            sid,
            &StepRequest::action(StepAction::Descend(root.children[0].state)),
        )
        .expect("descend");
        clients.push((c, sid)); // deliberately never closed
    }
    assert_eq!(svc.live_sessions(), 3);

    server.shutdown();
    assert_eq!(
        svc.live_sessions(),
        0,
        "shutdown must close every wire session"
    );
    assert_eq!(
        svc.stats().closed.load(Ordering::Relaxed),
        3,
        "every wire session must be closed by shutdown"
    );
}

/// Accepts past `max_conns` are shed with a typed first-class `Overloaded`
/// frame — before any session or gate resource is touched — and capacity
/// freed by a disconnect is reusable.
#[test]
fn accept_shedding_is_typed_and_recovers() {
    let _fp = dln_fault::scoped("net.accept_fail:0.0:1").expect("valid spec");
    let (svc, _ctx) = build_service();
    let server = start_server(
        Arc::new(svc),
        NetConfig {
            max_conns: 1,
            ..NetConfig::default()
        },
    );
    let mut first = test_client(server.local_addr());
    first.ping().expect("the one slot serves");

    // The second connection is shed at accept. Depending on how the RST
    // races the shed frame, the client sees either the typed Overloaded
    // or a transport failure after exhausting reconnects — never success.
    let mut second = Client::connect(server.local_addr().to_string()).expect("tcp connects");
    second.max_reconnects = 2;
    match second.ping() {
        Err(ServeError::Overloaded { retry_after_ms }) => assert!(retry_after_ms > 0),
        Err(ServeError::Nav(_)) => {}
        Ok(()) => panic!("a shed connection must not serve"),
        Err(other) => panic!("unexpected error class: {other}"),
    }
    assert!(server.stats().shed_accepts.load(Ordering::Relaxed) >= 1);

    // Freeing the slot lets a fresh client in (the reactor notices the
    // disconnect on its next readiness pass).
    drop(first);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let mut retry = Client::connect(server.local_addr().to_string()).expect("tcp connects");
        retry.max_reconnects = 1;
        if retry.ping().is_ok() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "freed capacity never became usable"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    server.shutdown();
}

/// Garbage bytes sever exactly the offending connection with a typed
/// internal error — the server stays healthy for well-behaved clients,
/// and over-announced frame lengths never allocate.
#[test]
fn adversarial_bytes_sever_one_conn_and_leave_the_server_healthy() {
    let _fp = dln_fault::scoped("net.accept_fail:0.0:1").expect("valid spec");
    use std::io::{Read, Write};
    let (svc, _ctx) = build_service();
    let server = start_server(Arc::new(svc), NetConfig::default());

    // Not-even-magic garbage.
    let mut vandal = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    vandal.write_all(&[0xAB; 64]).expect("send garbage");
    vandal
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("timeout");
    let mut buf = [0u8; 16];
    let n = vandal.read(&mut buf).expect("server closes, not hangs");
    assert_eq!(n, 0, "the garbage conn gets EOF, not a response");

    // Correct magic, absurd announced length: refused before allocation.
    let mut liar = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut header = Vec::new();
    header.extend_from_slice(&u32::from_le_bytes(*b"DLN1").to_le_bytes());
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    liar.write_all(&header).expect("send lying header");
    liar.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("timeout");
    let n = liar.read(&mut buf).expect("server closes, not hangs");
    assert_eq!(n, 0, "the oversized conn gets EOF");

    // The server still serves a well-behaved client.
    let mut good = test_client(server.local_addr());
    good.ping().expect("healthy after vandalism");
    let sid = good.open().expect("open");
    good.step(sid, &StepRequest::action(StepAction::Stay))
        .expect("step");
    good.close(sid).expect("close");
    server.shutdown();
}

/// Idle connections are reaped on the injected clock; their sessions stay
/// in the registry, so a reconnecting client continues its walk.
#[test]
fn idle_ttl_reaps_conns_but_preserves_sessions() {
    let _fp = dln_fault::scoped("net.accept_fail:0.0:1").expect("valid spec");
    let (svc, _ctx) = build_service();
    let svc = Arc::new(svc);
    let clock = Arc::new(ManualClock::new(0));
    let server = NetServer::start(
        Arc::clone(&svc),
        NetConfig {
            idle_ttl_ms: 100,
            ..NetConfig::default()
        },
        Arc::clone(&clock) as Arc<dyn datalake_nav::serve::Clock>,
    )
    .expect("server starts");

    let mut client = test_client(server.local_addr());
    let sid = client.open().expect("open");
    let root = client
        .step(sid, &StepRequest::action(StepAction::Stay))
        .expect("root");

    // Tick past the TTL; the reactor sweeps on its next poll timeout.
    clock.advance(500);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.stats().idle_reaped.load(Ordering::Relaxed) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "idle sweep never reaped the silent connection"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert_eq!(svc.live_sessions(), 1, "the session outlives its conn");

    // The client's next request rides the built-in reconnect and resumes
    // the same session where it left off.
    let resp = client
        .step(
            sid,
            &StepRequest::action(StepAction::Descend(root.children[0].state)),
        )
        .expect("reconnect resumes the walk");
    assert_eq!(resp.depth, 1);
    client.close(sid).expect("close");
    server.shutdown();
}

/// A service and a server sharing one manual clock: connections idle past
/// 100 ms are reaped, sessions idle past 1 s are evictable.
fn manual_clock_server() -> (Arc<NavService>, NetServer, Arc<ManualClock>) {
    let bench = TagCloudConfig::small().generate();
    let ctx = OrgContext::full(&bench.lake);
    let org = clustering_org(&ctx);
    let clock = Arc::new(ManualClock::new(0));
    let cfg = ServeConfig {
        deadline_ms: None,
        session_ttl_ms: 1_000,
        ..ServeConfig::default()
    };
    let svc = Arc::new(NavService::with_clock(
        ctx,
        org,
        NavConfig::default(),
        cfg,
        Arc::clone(&clock) as Arc<dyn datalake_nav::serve::Clock>,
    ));
    let server = NetServer::start(
        Arc::clone(&svc),
        NetConfig {
            idle_ttl_ms: 100,
            ..NetConfig::default()
        },
        Arc::clone(&clock) as Arc<dyn datalake_nav::serve::Clock>,
    )
    .expect("server starts");
    (svc, server, clock)
}

/// Poll `done` every 20 ms for up to 5 s of wall time.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !done() {
        assert!(std::time::Instant::now() < deadline, "{what}");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// Sessions abandoned with their connection leave no exactly-once cache
/// entry behind: once the connection is reaped and the service evicts the
/// sessions, the next idle sweep drops their entries.
#[test]
fn idle_sweep_drops_cache_entries_of_evicted_sessions() {
    let _fp = dln_fault::scoped("net.accept_fail:0.0:1").expect("valid spec");
    let (svc, server, clock) = manual_clock_server();
    let cached = || server.stats().cached_sessions.load(Ordering::Relaxed);

    let mut client = test_client(server.local_addr());
    for _ in 0..2 {
        let sid = client.open().expect("open");
        client
            .step(sid, &StepRequest::action(StepAction::Stay))
            .expect("step");
    }
    assert_eq!(cached(), 2, "each stepped session holds a cache entry");

    clock.advance(500);
    wait_until("idle sweep never reaped the silent connection", || {
        server.stats().idle_reaped.load(Ordering::Relaxed) > 0
    });
    assert_eq!(cached(), 2, "a reaped conn's sessions may still resume");

    clock.advance(1_000);
    assert_eq!(svc.sweep_expired(), 2, "both sessions outlived their TTL");
    // One more sweep interval, so a sweep runs after the eviction.
    clock.advance(100);
    wait_until("the sweep kept entries of evicted sessions", || {
        cached() == 0
    });
    server.shutdown();
}

/// A session resumed over a new connection after its first one was
/// reaped is still closed by graceful shutdown.
#[test]
fn shutdown_closes_sessions_resumed_on_a_new_connection() {
    let _fp = dln_fault::scoped("net.accept_fail:0.0:1").expect("valid spec");
    let (svc, server, clock) = manual_clock_server();

    let mut client = test_client(server.local_addr());
    let sid = client.open().expect("open");
    let root = client
        .step(sid, &StepRequest::action(StepAction::Stay))
        .expect("root");
    clock.advance(500);
    wait_until("idle sweep never reaped the silent connection", || {
        server.stats().idle_reaped.load(Ordering::Relaxed) > 0
    });

    // The next step reconnects and continues the walk on a new connection.
    let resp = client
        .step(
            sid,
            &StepRequest::action(StepAction::Descend(root.children[0].state)),
        )
        .expect("reconnect resumes the walk");
    assert_eq!(resp.depth, 1);
    assert_eq!(svc.live_sessions(), 1);

    server.shutdown();
    assert_eq!(
        svc.live_sessions(),
        0,
        "shutdown must close a session resumed on another connection"
    );
    assert_eq!(svc.stats().closed.load(Ordering::Relaxed), 1);
}
