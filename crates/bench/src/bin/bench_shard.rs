//! Sharded-construction benchmark: emits `BENCH_shard.json`.
//!
//! Measures, on a TagCloud lake, a grid of `shard-policy × threads`
//! cells (fixed counts 1/2/4 plus `auto`, the knee-of-cost-curve policy):
//!
//! 1. **Construction wall-clock** of [`build_sharded`] — partitioning,
//!    all per-shard searches under the parallel schedule, and the router
//!    stitch — with a fixed per-shard proposal budget (plateau disabled)
//!    so cells are comparable;
//! 2. **Stitched effectiveness** (Eq 6, exact, on the *full* context) so
//!    the quality cost of sharding is visible next to the speedup;
//! 3. Each cell's ratios against the `shards = 1` oracle at the same
//!    thread count (that cell is bit-identical to the unsharded
//!    `build_optimized` path).
//!
//! The shard speedup has two independent sources: per-shard searches run
//! concurrently (threads), and each shard evaluates on a context
//! restricted to its own tags *and* their queries, so per-proposal cost
//! falls roughly quadratically with the shard's tag share — which is why
//! the single-thread cells already improve.
//!
//! The `auto` cell also reports the knee its spectrum chose
//! (`auto_knee`).
//!
//! Flags: `--attrs <n>` target attribute count (default 800), `--seed <n>`,
//! `--iters <n>` proposal budget per shard search (default 200),
//! `--out <path>` JSON output path (default `BENCH_shard.json`).
//!
//! [`build_sharded`]: dln_org::build_sharded

use std::fmt::Write as _;
use std::time::Instant;

use dln_bench::{git_commit, host_threads, thread_sweep};
use dln_org::{build_sharded, OrgContext, SearchConfig, ShardPolicy, ShardedBuild};
use dln_synth::TagCloudConfig;

struct Args {
    attrs: usize,
    seed: u64,
    iters: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        attrs: 800,
        seed: 42,
        iters: 200,
        out: "BENCH_shard.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need = |j: usize| -> &str {
            argv.get(j).map(|s| s.as_str()).unwrap_or_else(|| {
                eprintln!("error: {} needs a value", argv[j - 1]);
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--attrs" => {
                args.attrs = need(i + 1).parse().expect("--attrs: integer");
                i += 2;
            }
            "--seed" => {
                args.seed = need(i + 1).parse().expect("--seed: integer");
                i += 2;
            }
            "--iters" => {
                args.iters = need(i + 1).parse().expect("--iters: integer");
                i += 2;
            }
            "--out" => {
                args.out = need(i + 1).to_string();
                i += 2;
            }
            "--help" | "-h" => {
                eprintln!("flags: --attrs <n> --seed <n> --iters <n> --out <path>");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// One timed sharded build: full wall-clock of partition + per-shard
/// searches + stitch, with the plateau stop disabled for comparability.
fn timed_build(
    lake: &dln_lake::DataLake,
    seed: u64,
    iters: usize,
    shards: ShardPolicy,
) -> (f64, ShardedBuild) {
    let cfg = SearchConfig {
        max_iters: iters,
        plateau_iters: iters.max(1),
        seed,
        shards,
        ..Default::default()
    };
    let start = Instant::now();
    let build = build_sharded(lake, &cfg);
    (start.elapsed().as_secs_f64(), build)
}

fn main() {
    let args = parse_args();
    let host_threads = host_threads();
    eprintln!(
        "generating TagCloud lake (~{} attrs), host parallelism {host_threads} ...",
        args.attrs
    );
    let bench = TagCloudConfig {
        n_tags: (args.attrs / 12).max(16),
        n_attrs_target: args.attrs,
        store_values: false,
        seed: args.seed,
        ..TagCloudConfig::small()
    }
    .generate();
    let ctx = OrgContext::full(&bench.lake);
    if ctx.n_tags() == 0 || ctx.n_attrs() == 0 {
        eprintln!("error: --attrs {} produced an empty lake", args.attrs);
        std::process::exit(2);
    }
    eprintln!(
        "context: {} attrs, {} tags, {} tables",
        ctx.n_attrs(),
        ctx.n_tags(),
        ctx.n_tables()
    );

    let sweep = thread_sweep();
    let policies = [
        ShardPolicy::Fixed(1),
        ShardPolicy::Fixed(2),
        ShardPolicy::Fixed(4),
        ShardPolicy::Auto,
    ];
    let mut lines = Vec::new();
    for &threads in &sweep {
        rayon::with_num_threads(threads, || {
            let mut oracle_secs = f64::NAN;
            let mut oracle_eff = f64::NAN;
            for &shards in &policies {
                let (secs, build) = timed_build(&bench.lake, args.seed, args.iters, shards);
                let eff = build.effectiveness();
                if shards == ShardPolicy::Fixed(1) {
                    oracle_secs = secs;
                    oracle_eff = eff;
                }
                let vs_secs = secs / oracle_secs;
                let vs_eff = eff / oracle_eff;
                let knee = build
                    .shard_spectrum
                    .as_ref()
                    .map(|s| s.knee.to_string())
                    .unwrap_or_else(|| "null".to_string());
                eprintln!(
                    "shards={shards} @ {threads} thread(s): {:.1} ms ({vs_secs:.3}x oracle), \
                     effectiveness {eff:.6} ({vs_eff:.4}x oracle), {} shards built, {} proposals",
                    secs * 1e3,
                    build.n_shards(),
                    build.total_iterations()
                );
                lines.push(format!(
                    "    {{ \"threads\": {threads}, \"shards\": \"{shards}\", \"auto_knee\": {knee}, \"seconds\": {secs:.6}, \"effectiveness\": {eff:.9}, \"n_shards_built\": {}, \"iterations\": {}, \"vs_unsharded_seconds\": {vs_secs:.4}, \"vs_unsharded_effectiveness\": {vs_eff:.4} }}",
                    build.n_shards(),
                    build.total_iterations()
                ));
            }
        });
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"shard\",");
    let _ = writeln!(json, "  \"git_commit\": \"{}\",", git_commit());
    let _ = writeln!(
        json,
        "  \"lake\": {{ \"generator\": \"tagcloud\", \"n_attrs\": {}, \"n_tags\": {}, \"n_tables\": {}, \"seed\": {} }},",
        ctx.n_attrs(),
        ctx.n_tags(),
        ctx.n_tables(),
        args.seed
    );
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    let _ = writeln!(json, "  \"proposal_budget_per_shard\": {},", args.iters);
    let _ = writeln!(json, "  \"cells\": [");
    let _ = writeln!(json, "{}", lines.join(",\n"));
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&args.out, &json).expect("write BENCH_shard.json");
    println!("{json}");
    eprintln!("wrote {}", args.out);
}
