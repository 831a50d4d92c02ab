//! `perfbench --workload <build|navigate|churn> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints diagnostics, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A run whose
//! outputs fail a check exits non-zero and prints no metrics.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

use perfbench::workloads::{self, Outcome};

/// End-to-end metrics and their units; every workload reports each.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("effectiveness", "prob"),
    ("peak_rss_mb", "MB"),
    ("nav_p50_us", "us"),
];

/// Per-layer metrics and their units. A workload that does not run a
/// layer reports 0 for it.
const PER_LAYER: [(&str, &str); 59] = [
    ("embed.load_s", "s"),
    ("lake.ingest_s", "s"),
    ("lake.csv_mb_per_s", "MB/s"),
    ("lake.quarantined", "count"),
    ("org.ctx_s", "s"),
    ("cluster.s", "s"),
    ("search.s", "s"),
    ("search.proposals", "count"),
    ("search.accept_ratio", "ratio"),
    ("search.ms_per_proposal", "ms"),
    ("search.eval_fraction", "ratio"),
    ("store.save_s", "s"),
    ("store.bytes", "bytes"),
    ("store.open_s", "s"),
    ("net.start_s", "s"),
    ("net.first_step_us", "us"),
    ("rss.ingest_mb", "MB"),
    ("rss.ctx_mb", "MB"),
    ("rss.cluster_mb", "MB"),
    ("rss.search_mb", "MB"),
    ("rss.store_mb", "MB"),
    ("rss.serve_mb", "MB"),
    ("shard.build_s", "s"),
    ("nav.samples", "count"),
    ("nav.steps_per_s", "1/s"),
    ("nav.cpu_us_per_step", "us"),
    ("nav.p99_us", "us"),
    ("nav.wire_p50_us", "us"),
    ("net.client_encode_us", "us"),
    ("net.server_decode_us", "us"),
    ("serve.dispatch_us", "us"),
    ("net.server_encode_us", "us"),
    ("net.client_decode_us", "us"),
    ("net.transport_us", "us"),
    ("serve.rank_us", "us"),
    ("serve.tables_us", "us"),
    ("nav.compared", "count"),
    ("serve.requests", "count"),
    ("serve.overloaded", "count"),
    ("serve.degraded", "count"),
    ("net.requests", "count"),
    ("net.dedup_hits", "count"),
    ("net.shed_accepts", "count"),
    ("fail.transport", "count"),
    ("fail.overloaded", "count"),
    ("fail.session", "count"),
    ("fail.other", "count"),
    ("nav.stale_refusals", "count"),
    ("failed_frac", "ratio"),
    ("cdc.append_p50_us", "us"),
    ("cdc.append_p99_us", "us"),
    ("maint.cycle_s", "s"),
    ("maint.effectiveness_ratio", "ratio"),
    ("maint.cycles", "count"),
    ("maint.searched_shards", "count"),
    ("maint.changed_slots", "count"),
    ("serve.migrated", "count"),
    ("serve.migrated_in_place", "count"),
    ("serve.in_place_ratio", "ratio"),
];

/// Per-layer figures also printed on the diagnostics line.
const DIAGNOSTIC: [&str; 6] = [
    "nav.samples",
    "nav.steps_per_s",
    "nav.cpu_us_per_step",
    "nav.p99_us",
    "nav.stale_refusals",
    "nav.compared",
];

/// Knobs the library reads from the environment that would change what
/// is measured and cannot be overridden through a configuration value.
const REFUSED_ENV: [&str; 3] = ["DLN_FAILPOINTS", "DLN_SIMD", "DLN_STORE_MMAP"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <build|navigate|churn> --seed <n> --seconds <n> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = v.clone(),
            "--seed" => {
                args.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad value {v:?} for {flag}")))
            }
            "--seconds" => {
                args.seconds = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad value {v:?} for {flag}")))
            }
            "--trace" => {
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("bad value {v:?} for {flag}")),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    args
}

/// `git` facts about the source tree, when it is a git checkout.
fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let args = parse_args();
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("error: {var} is set; the benchmark measures the program without it");
        std::process::exit(2);
    }
    let run = match args.workload.as_str() {
        "build" => workloads::build,
        "navigate" => workloads::navigate,
        "churn" => workloads::churn,
        other => usage(&format!("unknown workload {other:?}")),
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: creating {}: {e}", work.display());
        std::process::exit(1);
    }
    let result = run(&work, args.seed, args.seconds, args.trace);
    let _ = std::fs::remove_dir_all(&work);
    let out: Outcome = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {} (seed {}): {e}", args.workload, args.seed);
            std::process::exit(1);
        }
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut info = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        (
            "commit",
            git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        ),
        (
            "dirty",
            git(&["status", "--porcelain"])
                .map_or("unknown".into(), |s| (!s.is_empty()).to_string()),
        ),
        ("nproc", nproc.to_string()),
        (
            "dln_threads",
            std::env::var("DLN_THREADS").unwrap_or_else(|_| "unset".into()),
        ),
    ];
    info.push(("corpus_digests", out.digests.join(",")));
    info.extend(out.info.iter().map(|(k, v)| (*k, v.clone())));
    let mut line = String::from("{");
    for (i, (k, v)) in info.iter().enumerate() {
        let _ = write!(
            line,
            "{}{}: {}",
            if i > 0 { ", " } else { "" },
            json_str(k),
            json_str(v)
        );
    }
    // The end-to-end figures (also on traced runs, for the tracing
    // overhead), failures by kind, and the step sample count and p99.
    let diagnostic =
        |k: &str| !k.contains('.') || k.starts_with("fail.") || DIAGNOSTIC.contains(&k);
    for (k, v) in out.metrics.iter().filter(|(k, _)| diagnostic(k)) {
        let _ = write!(line, ", {}: {v:?}", json_str(k));
    }
    line.push('}');
    println!("{line}");

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                eprintln!("error: metric {name} is {v}");
                std::process::exit(1);
            }
            None if args.trace => 0.0,
            None => {
                eprintln!("error: end-to-end metric {name} was not measured");
                std::process::exit(1);
            }
        };
        let _ = write!(
            metrics,
            "{}{}: {{\"value\": {value:?}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            json_str(name),
            json_str(unit)
        );
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
}
