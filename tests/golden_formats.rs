//! Cross-version golden images of the durable cycle formats and the wire
//! protocol.
//!
//! The chaos suites compare faulted and unfaulted runs of one build; this
//! suite pins the bytes themselves. `tests/fixtures/golden/` holds what two
//! fixed maintenance cycles leave on disk: the change-log WAL frames and
//! compacted snapshot (`DLNCDCSN`) and the state file (`DLNMAINT`) with and
//! without an in-flight plan. The test checks that the current code writes
//! those exact bytes from scratch, that it resumes a crashed cycle from the
//! pinned files, and that the published organization carries the pinned
//! fingerprint.
//!
//! It also holds one wire frame per request and response variant
//! (`wire.requests`, `wire.responses`, frames back to back, the i-th
//! frame with sequence number i). A round trip cannot catch a byte change
//! that encoder and decoder make together; these images can, in both
//! directions.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use datalake_nav::embed::TopicAccumulator;
use datalake_nav::lake::{AttrChange, ChangeEvent};
use datalake_nav::net::wire;
use datalake_nav::org::{
    build_sharded, MaintConfig, Maintainer, SearchConfig, ShardPolicy, ShardedBuild, StateId,
};
use datalake_nav::prelude::*;
use datalake_nav::serve::service::{ChildView, SwapOutcome};
use datalake_nav::serve::{ApiRequest, ApiResponse, ManualClock, WireError};
use datalake_nav::synth::TagCloudConfig;

/// Fingerprint of the organization published by the second maintenance
/// cycle.
const MAINT_FP: u64 = 0x670c_4064_97ec_c336;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dln_golden_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Assert that `path` holds exactly the pinned image `name`.
fn check(path: &Path, name: &str) {
    assert!(
        read(path) == read(&fixture_dir().join(name)),
        "{} differs from the pinned image {name}",
        path.display()
    );
}

/// Copy the pinned image `name` to `dir/file`.
fn install(name: &str, dir: &Path, file: &str) {
    std::fs::copy(fixture_dir().join(name), dir.join(file)).expect("copy fixture");
}

fn setup() -> (DataLake, ShardedBuild) {
    let bench = TagCloudConfig::small().generate();
    let cfg = SearchConfig {
        max_iters: 60,
        plateau_iters: 20,
        shards: ShardPolicy::Fixed(2),
        ..SearchConfig::default()
    };
    let build = build_sharded(&bench.lake, &cfg);
    (bench.lake, build)
}

fn service(build: &ShardedBuild) -> NavService {
    NavService::with_clock(
        build.built.ctx.clone(),
        build.built.organization.clone(),
        build.built.nav,
        ServeConfig::default(),
        Arc::new(ManualClock::new(0)),
    )
}

fn served_fp(svc: &NavService) -> u64 {
    svc.snapshot()
        .owned_parts()
        .expect("owned snapshot")
        .1
        .fingerprint()
}

fn cycle_search() -> SearchConfig {
    SearchConfig {
        max_iters: 60,
        plateau_iters: 20,
        seed: 5,
        ..SearchConfig::default()
    }
}

/// Every knob pinned, so environment overrides cannot move the images.
fn maint_cfg(dir: &Path) -> MaintConfig {
    let mut cfg = MaintConfig::new(dir);
    cfg.search = cycle_search();
    cfg.slice = None;
    cfg.ckpt_every = 2;
    cfg.rebalance_drift = 0.05;
    cfg.cdc_path = None;
    cfg
}

fn topic_near(lake: &DataLake, tag_ix: usize, nudge: f32) -> TopicAccumulator {
    let mut v = lake.tags()[tag_ix % lake.n_tags()].unit_topic.clone();
    for (i, x) in v.iter_mut().enumerate() {
        *x += nudge * ((i % 3) as f32 - 1.0);
    }
    let mut acc = TopicAccumulator::new(lake.dim());
    acc.add(&v);
    acc
}

fn table_name(lake: &DataLake, ix: usize) -> String {
    let id = lake.table_ids().nth(ix).expect("table");
    lake.table(id).name.clone()
}

/// First batch: an add under a new and an existing label, a retag and a
/// removal of seed tables.
fn batch_one(lake: &DataLake) -> Vec<ChangeEvent> {
    vec![
        ChangeEvent::TableAdded {
            name: "golden_t0".to_string(),
            tags: vec!["golden_new".to_string(), lake.tags()[0].label.clone()],
            attrs: vec![AttrChange {
                name: "c0".to_string(),
                topic: topic_near(lake, 0, 0.1),
                n_values: 7,
                tags: Vec::new(),
            }],
        },
        ChangeEvent::TableRetagged {
            name: table_name(lake, 1),
            tags: vec![lake.tags()[2].label.clone()],
        },
        ChangeEvent::TableRemoved {
            name: table_name(lake, 3),
        },
    ]
}

/// Second batch: another table under the new label, then the first one
/// leaves again.
fn batch_two(lake: &DataLake) -> Vec<ChangeEvent> {
    vec![
        ChangeEvent::TableAdded {
            name: "golden_t1".to_string(),
            tags: vec!["golden_new".to_string()],
            attrs: vec![AttrChange {
                name: "c0".to_string(),
                topic: topic_near(lake, 1, -0.2),
                n_values: 5,
                tags: vec![lake.tags()[1].label.clone()],
            }],
        },
        ChangeEvent::TableRemoved {
            name: "golden_t0".to_string(),
        },
    ]
}

fn publish_maint(svc: &NavService, maint: &mut Maintainer<'_>) {
    let report = svc.run_maintenance_cycle(maint).expect("cycle");
    assert!(report.epoch.is_some(), "the cycle publishes");
}

#[test]
fn maintenance_cycles_write_and_resume_the_pinned_images() {
    let (lake, build) = setup();

    // From scratch: a cycle crashed right after its plan commit, finished
    // by a restarted maintainer, then a second batch and cycle.
    let svc = service(&build);
    let dir = tmp("maint");
    {
        let _fp = dln_fault::scoped("churn.crash_mid_plan:1.0:0").expect("arm");
        let mut maint = Maintainer::for_build(&lake, &build, maint_cfg(&dir)).expect("open");
        for ev in batch_one(&lake) {
            maint.ingest(&ev).expect("ingest");
        }
        assert!(
            svc.run_maintenance_cycle(&mut maint).is_err(),
            "injected crash"
        );
    }
    let _clean = dln_fault::scoped("").expect("disarm");
    check(&dir.join("maint.state"), "maint.state.planned");
    check(&dir.join("cdc.wal"), "cdc.wal");
    let mut maint = Maintainer::for_build(&lake, &build, maint_cfg(&dir)).expect("open");
    publish_maint(&svc, &mut maint);
    for ev in batch_two(&lake) {
        maint.ingest(&ev).expect("ingest");
    }
    publish_maint(&svc, &mut maint);
    check(&dir.join("maint.state"), "maint.state");
    check(&dir.join("cdc"), "cdc");
    assert_eq!(served_fp(&svc), MAINT_FP);

    // From the pinned images: the crashed cycle resumes to the same bytes.
    let dir = tmp("maint_resume");
    install("maint.state.planned", &dir, "maint.state");
    install("cdc.wal", &dir, "cdc.wal");
    let svc = service(&build);
    let mut maint = Maintainer::for_build(&lake, &build, maint_cfg(&dir)).expect("open");
    assert!(maint.in_flight());
    assert_eq!(maint.pending(), 3);
    publish_maint(&svc, &mut maint);
    for ev in batch_two(&lake) {
        maint.ingest(&ev).expect("ingest");
    }
    publish_maint(&svc, &mut maint);
    check(&dir.join("maint.state"), "maint.state");
    check(&dir.join("cdc"), "cdc");
    assert_eq!(served_fp(&svc), MAINT_FP);
}

/// One request of every variant, every step action, and a step with and
/// without its optional fields.
fn wire_requests() -> Vec<ApiRequest> {
    let step = |action, query, deadline_ms, list_tables| ApiRequest::Step {
        session: SessionId(0x0102_0304_0506_0708),
        req: StepRequest {
            action,
            query,
            deadline_ms,
            list_tables,
        },
    };
    vec![
        ApiRequest::Ping,
        ApiRequest::Open { fault_key: 77 },
        step(
            StepAction::Descend(StateId(9)),
            Some(vec![0.25, -1.5, f32::MIN_POSITIVE, 1.0 / 3.0]),
            Some(17),
            true,
        ),
        step(StepAction::Backtrack, None, None, false),
        step(StepAction::Reset, Some(Vec::new()), None, true),
        step(StepAction::Stay, None, Some(u64::MAX), false),
        ApiRequest::Path {
            session: SessionId(5),
        },
        ApiRequest::Close {
            session: SessionId(6),
        },
    ]
}

/// One response of every variant, every [`WireError`] and every swap
/// outcome; the first step carries probabilities, tables, `degraded` and
/// a migration.
fn wire_responses() -> Vec<ApiResponse> {
    let step = |children, tables, degraded, swap| {
        ApiResponse::Step(StepResponse {
            session: SessionId(8),
            epoch: 3,
            state: StateId(11),
            depth: 2,
            label: "étiquette".to_string(),
            at_tag_state: Some(4),
            children,
            tables,
            degraded,
            swap,
        })
    };
    let children = vec![
        ChildView {
            state: StateId(12),
            label: "a".to_string(),
            prob: Some(0.1 + 0.2),
        },
        ChildView {
            state: StateId(13),
            label: String::new(),
            prob: None,
        },
    ];
    let mut out = vec![
        ApiResponse::Pong,
        ApiResponse::Opened {
            session: SessionId(1),
        },
        step(
            children,
            vec![(TableId(0), 5), (TableId(9), 1)],
            true,
            SwapOutcome::Migrated {
                from_epoch: 1,
                to_epoch: 3,
                lost_depth: 1,
            },
        ),
        step(Vec::new(), Vec::new(), false, SwapOutcome::Current),
        step(
            Vec::new(),
            Vec::new(),
            false,
            SwapOutcome::Pinned { epoch: 2 },
        ),
        ApiResponse::Path {
            session: SessionId(2),
            path: vec![StateId(0), StateId(4), StateId(11)],
        },
        ApiResponse::Closed {
            session: SessionId(3),
        },
    ];
    out.extend(
        [
            WireError::Overloaded { retry_after_ms: 9 },
            WireError::SessionLimit { capacity: 2 },
            WireError::SessionNotFound {
                session: SessionId(1),
            },
            WireError::SessionExpired {
                session: SessionId(2),
                injected: true,
            },
            WireError::Stale {
                session_epoch: 0,
                current_epoch: 4,
            },
            WireError::Nav {
                message: "not a child".to_string(),
            },
        ]
        .map(ApiResponse::Error),
    );
    out
}

/// Check that `msgs` frame to exactly the pinned image `name`, and that
/// the pinned frames decode back to `msgs` (compared by `Debug`, which
/// prints every float exactly).
fn check_frames<T: std::fmt::Debug>(
    name: &str,
    msgs: &[T],
    encode: impl Fn(u64, &T) -> Vec<u8>,
    decode: impl Fn(&[u8], &str) -> dln_fault::DlnResult<(u64, T)>,
) {
    let mut framed = Vec::new();
    for (seq, msg) in msgs.iter().enumerate() {
        wire::encode_frame(&encode(seq as u64, msg), &mut framed);
    }
    let pinned = read(&fixture_dir().join(name));
    assert!(framed == pinned, "encoded frames differ from {name}");
    let mut rest = &pinned[..];
    for (seq, msg) in msgs.iter().enumerate() {
        let (payload, used) = wire::try_decode_frame(rest, wire::MAX_FRAME_LEN, name)
            .expect("pinned frame")
            .expect("complete frame");
        let (got_seq, got) = decode(payload, name).expect("pinned payload");
        assert_eq!(got_seq, seq as u64, "{name} frame {seq}");
        assert_eq!(format!("{got:?}"), format!("{msg:?}"), "{name} frame {seq}");
        rest = &rest[used..];
    }
    assert!(rest.is_empty(), "{name} holds more frames than messages");
}

#[test]
fn wire_frames_match_the_pinned_images() {
    check_frames(
        "wire.requests",
        &wire_requests(),
        wire::encode_request,
        wire::decode_request,
    );
    check_frames(
        "wire.responses",
        &wire_responses(),
        wire::encode_response,
        wire::decode_response,
    );
}
