//! Cross-version golden images of the durable cycle formats.
//!
//! The chaos suites compare faulted and unfaulted runs of one build; this
//! suite pins the bytes themselves. `tests/fixtures/golden/` holds what two
//! fixed maintenance cycles leave on disk: the change-log WAL frames and
//! compacted snapshot (`DLNCDCSN`) and the state file (`DLNMAINT`) with and
//! without an in-flight plan. The test checks that the current code writes
//! those exact bytes from scratch, that it resumes a crashed cycle from the
//! pinned files, and that the published organization carries the pinned
//! fingerprint.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use datalake_nav::embed::TopicAccumulator;
use datalake_nav::lake::{AttrChange, ChangeEvent};
use datalake_nav::org::{
    build_sharded, MaintConfig, Maintainer, SearchConfig, ShardPolicy, ShardedBuild,
};
use datalake_nav::prelude::*;
use datalake_nav::serve::ManualClock;
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
