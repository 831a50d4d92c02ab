//! Fault-injection integration tests (ISSUE 3): with failpoints armed, the
//! pipeline must complete, report what it quarantined, and — for the
//! search — produce results **bit-identical** to the fault-free run.
//!
//! The failpoint schedule honors the `DLN_FAILPOINTS` environment variable
//! (the CI fault matrix runs this binary under several fixed specs) and
//! falls back to a default spec arming every site. Every faulted section
//! runs under `dln_fault::scoped`, which resets hit counters — so a given
//! spec produces the same fault schedule on every run — and serializes the
//! tests of this binary against each other (the failpoint registry is
//! process-global). Fault-free baselines run under `scoped("")` for the
//! same reason.

use std::path::{Path, PathBuf};

use datalake_nav::embed::VecFileModel;
use datalake_nav::lake::csv::{ingest_dir, CsvOptions};
use datalake_nav::org::checkpoint::Checkpoint;
use datalake_nav::org::search::{optimize, resume, SearchConfig, SearchStats, StopReason};
use datalake_nav::org::{random_org, CheckpointConfig, OrgContext, Organization};
use datalake_nav::prelude::*;

/// The failpoint spec under test: the CI matrix entry if set, else a
/// default arming every site.
fn armed_spec() -> String {
    std::env::var("DLN_FAILPOINTS")
        .ok()
        .filter(|s| !s.trim().is_empty())
        .unwrap_or_else(|| "ingest.read:0.3:7,checkpoint.torn:0.5:3,search.kill:0.3:5".to_string())
}

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dln_fault_{name}_{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A lake directory with six clean tables plus the two malformed fixtures
/// (unbalanced quote, invalid UTF-8).
fn build_lake_dir(name: &str) -> (PathBuf, usize) {
    let dir = tmp_dir(name);
    for i in 0..6 {
        let body = format!("city,rank\nlisbon{i},1\nporto{i},2\nbraga{i},3\ncoimbra{i},4\n");
        std::fs::write(dir.join(format!("table{i}.csv")), body).expect("write csv");
    }
    for fixture in ["torn.csv", "binary.csv"] {
        std::fs::copy(fixtures().join(fixture), dir.join(fixture)).expect("copy fixture");
    }
    (dir, 8)
}

#[test]
fn ingest_completes_and_accounts_for_every_file_under_faults() {
    let (dir, n_files) = build_lake_dir("ingest");
    let model = SyntheticEmbedding::new(&SyntheticEmbeddingConfig::default());
    let opts = CsvOptions::default();

    // Fault-free baseline: only the two malformed fixtures quarantine.
    let clean = {
        let _fp = dln_fault::scoped("").expect("disarm");
        ingest_dir(&dir, &model, &opts).expect("clean ingest")
    };
    assert_eq!(clean.report.tables_loaded, 6);
    assert_eq!(clean.report.malformed_csv, 1, "torn.csv");
    assert_eq!(clean.report.invalid_utf8, 1, "binary.csv");
    assert_eq!(clean.report.io_errors, 0);
    assert_eq!(clean.lake.tables().len(), 6);

    // Faulted run: must still complete, and every CSV file must be
    // accounted for — loaded, text-free, or quarantined with a reason.
    let faulted = {
        let _fp = dln_fault::scoped(&armed_spec()).expect("arm");
        ingest_dir(&dir, &model, &opts).expect("faulted ingest must complete")
    };
    let r = &faulted.report;
    assert_eq!(
        r.tables_loaded + r.tables_without_text + r.total_quarantined(),
        n_files,
        "every file accounted for: {r:?}"
    );
    assert_eq!(r.quarantined.len(), r.total_quarantined());
    // The two malformed fixtures quarantine in *some* category (an armed
    // ingest.read fault may claim them as IO errors before parsing).
    assert!(r.total_quarantined() >= 2, "{r:?}");
    assert_eq!(faulted.lake.tables().len(), r.tables_loaded);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_vec_fixtures_are_quarantined_not_fatal() {
    let (model, report) =
        VecFileModel::from_path_report(&fixtures().join("truncated.vec")).expect("loads");
    assert_eq!(report.rows_loaded, 3, "{report:?}");
    assert_eq!(report.header_lines, 1);
    assert_eq!(report.dim_mismatch_rows, 1, "the truncated gamma row");
    assert_eq!(model.len(), 3);

    let (model, report) =
        VecFileModel::from_path_report(&fixtures().join("nan.vec")).expect("loads");
    assert_eq!(report.rows_loaded, 2, "{report:?}");
    assert_eq!(report.non_finite_rows, 2, "the nan and inf rows");
    assert_eq!(model.len(), 2);
}

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

fn walk_cfg() -> SearchConfig {
    SearchConfig {
        max_iters: 120,
        plateau_iters: 60,
        deadline: None,
        checkpoint: None,
        ..Default::default()
    }
}

fn assert_same_run(a: &SearchStats, b: &SearchStats, a_org: &Organization, b_org: &Organization) {
    assert_eq!(
        a.final_effectiveness.to_bits(),
        b.final_effectiveness.to_bits()
    );
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.accepted, b.accepted);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.stop, b.stop);
    assert_eq!(a.iter_stats, b.iter_stats);
    assert_eq!(a_org.fingerprint(), b_org.fingerprint());
}

#[test]
fn killed_runs_resume_through_torn_checkpoints_to_the_fault_free_result() {
    // The full crash story end to end: the search is killed at round
    // boundaries (search.kill), checkpoints suffer torn writes
    // (checkpoint.torn, rejected by checksum and recovered via the .prev
    // generation), and each resume replays the op log — the surviving
    // chain must land on the fault-free result, bit for bit.
    let ctx = small_ctx();
    let dir = tmp_dir("kill_chain");
    let path = dir.join("search.ckpt");
    let walk = walk_cfg();
    let mut org_clean = random_org(&ctx, 0xC4A5);
    let clean = {
        let _fp = dln_fault::scoped("").expect("disarm");
        optimize(&ctx, &mut org_clean, &walk)
    };
    let cfg = SearchConfig {
        checkpoint: Some(CheckpointConfig {
            path: path.clone(),
            every_rounds: 1,
        }),
        ..walk.clone()
    };
    // This test is *about* the kill site: if the CI matrix entry under test
    // arms other sites only, add a default kill schedule on top.
    let mut base_spec = armed_spec();
    if !base_spec.contains("search.kill") {
        base_spec.push_str(",search.kill:0.3:5");
    }
    let mut kills = 0usize;
    let mut attempt = 0usize;
    let (stats, org_final) = loop {
        attempt += 1;
        // Vary the kill seed per attempt so the chain makes progress; the
        // final attempts run fault-free to guarantee termination.
        let spec = if attempt <= 12 {
            base_spec
                .split(',')
                .map(|e| {
                    let e = e.trim();
                    if e.starts_with("search.kill") {
                        let mut parts = e.split(':');
                        let name = parts.next().unwrap_or("search.kill");
                        let prob = parts.next().unwrap_or("0.3");
                        let seed: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(5);
                        format!("{name}:{prob}:{}", seed.wrapping_add(attempt as u64))
                    } else {
                        e.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join(",")
        } else {
            String::new()
        };
        let _fp = dln_fault::scoped(&spec).expect("arm");
        let mut org = random_org(&ctx, 0xC4A5);
        let stats = match Checkpoint::load_with_fallback(&path) {
            Ok(ck) => resume(&ctx, &mut org, &cfg, &ck)
                .expect("a checkpointed run must resume against its initial organization"),
            // Killed before the first (or any intact) checkpoint: start
            // over, exactly like a crashed process would.
            Err(_) => optimize(&ctx, &mut org, &cfg),
        };
        if stats.stop == StopReason::Killed {
            kills += 1;
            continue;
        }
        break (stats, org);
    };
    assert!(
        kills >= 1,
        "the armed spec must actually kill the search at least once"
    );
    assert_same_run(&clean, &stats, &org_clean, &org_final);
    std::fs::remove_dir_all(&dir).ok();
}
