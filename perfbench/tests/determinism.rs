//! The benchmark's inputs and its quality figure are functions of the seed
//! alone.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use dln_net::NetServer;
use dln_org::{clustering_org, OrgContext};
use dln_serve::{NavService, WallClock};
use perfbench::lakegen::{write_lake, LakeSpec};
use perfbench::nav::{sessions, Conn, Op};
use perfbench::pipeline::{ingest, net_config, serve_config, NAV};
use perfbench::stats::Trace;

const SMALL: LakeSpec = LakeSpec {
    tables: 80,
    cols: 4,
    rows: 20,
    dim: 16,
    topics: 8,
    tags: 24,
};

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating a work directory");
    dir
}

#[test]
fn corpus_digest_follows_the_seed() {
    let digest = |name: &str, seed: u64| {
        write_lake(&work_dir(name), &SMALL, seed)
            .expect("writing the lake")
            .digest
    };
    assert_eq!(digest("corpus_a", 1), digest("corpus_b", 1));
    assert_ne!(digest("corpus_a", 1), digest("corpus_c", 2));
}

#[test]
fn request_sequence_follows_the_seed() {
    let corpus = write_lake(&work_dir("requests"), &SMALL, 3).expect("writing the lake");
    let (lake, _) = ingest(&corpus, &mut Trace::default(), None).expect("ingesting the lake");
    let ctx = OrgContext::full(&lake);
    let org = clustering_org(&ctx);
    // The requests one benchmark connection sends over the wire to a fresh
    // server, and the digests of the answers it kept.
    type Sent = (Vec<(u32, Op)>, Vec<(usize, Option<u64>)>);
    let sent = |seed: u64| -> Sent {
        let svc = Arc::new(NavService::new(
            ctx.clone(),
            org.clone(),
            NAV,
            serve_config(64),
        ));
        let server = NetServer::start(svc, net_config(), Arc::new(WallClock::new()))
            .expect("starting the server");
        let addr = server.local_addr().to_string();
        let mut conn = Conn::open(&addr, 0, sessions(seed, 32, &corpus.centers), seed)
            .expect("opening the sessions");
        conn.run_turns(2_000);
        let out = (
            std::mem::take(&mut conn.log),
            std::mem::take(&mut conn.samples),
        );
        drop(conn);
        server.shutdown();
        out
    };
    let (log, answers) = sent(7);
    assert_eq!(log.len(), 32 + 2_000);
    assert!(log.iter().any(|(_, op)| matches!(op, Op::Step(..))));
    assert_eq!((log.clone(), answers), sent(7));
    assert_ne!(log, sent(8).0);
}

/// The `effectiveness` value printed by one `build` run, as text: its
/// shortest round-trip form, so equal text means equal bits.
fn build_effectiveness(dir: &str, env: &[(&str, &str)]) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "--workload",
        "build",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "0",
    ])
    .current_dir(work_dir(dir))
    .env_remove("DLN_SHARDS")
    .env_remove("DLN_BATCH");
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("running the benchmark");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let key = "\"effectiveness\": {\"value\": ";
    let at = last.find(key).expect("effectiveness is reported") + key.len();
    last[at..].split(',').next().expect("a value").to_string()
}

#[test]
fn build_effectiveness_is_bit_identical_and_ignores_ambient_knobs() {
    let first = build_effectiveness("build_a", &[]);
    assert_eq!(first, build_effectiveness("build_b", &[]));
    assert_eq!(
        first,
        build_effectiveness("build_c", &[("DLN_SHARDS", "3"), ("DLN_BATCH", "4")])
    );
}
