//! Full-Socrata-scale construction benchmark: emits `BENCH_scale.json`.
//!
//! The paper's real lake has ~50,879 attributes and its organization build
//! took ~12 h; this bench drives a synthetic lake of comparable attribute
//! count end-to-end through the scale-ready front-end and reports, per
//! thread count of the `DLN_THREADS` sweep:
//!
//! 1. **Pairwise build** — [`CondensedMatrix::from_points`] over *all*
//!    attribute unit topics (tiled gram kernel, `n(n−1)/2` f32 entries),
//!    with the peak distance-store bytes reported next to the dense
//!    `n × n` baseline it replaces (the ratio is ~0.5 by construction);
//! 2. **Clustering** — NN-chain average linkage over the condensed store
//!    ([`Dendrogram::average_linkage_condensed`]), the paper's §3.3
//!    initial-organization step at full attribute scale;
//! 3. **k-medoids** — a matrix-free [`KMedoids`] fit over the full
//!    attribute set (strip-blocked through the tiled kernel; working
//!    memory is `O(n)`, never `n × n`);
//! 4. **Sharded construction** — [`build_sharded`] on the same lake under
//!    `ShardPolicy::Auto` (knee of the k-medoids cost curve) and the
//!    fixed-4 baseline, with stitched effectiveness and the auto
//!    spectrum recorded so the policy choice is auditable.
//!
//! At toy sizes (`n ≤ ORACLE_MAX_N`) the dense-matrix oracle also runs
//! and the merge sequences are **bit-compared** — the bench doubles as an
//! end-to-end determinism check and fails loudly on any divergence.
//!
//! Flags: `--attrs <n>` target attribute count (default 50_000),
//! `--seed <n>`, `--iters <n>` proposal budget per shard search
//! (default 64), `--kmedoids-k <k>` cluster count for stage 3 (default 16),
//! `--out <path>` JSON output path (default `BENCH_scale.json`).
//!
//! [`CondensedMatrix::from_points`]: dln_cluster::CondensedMatrix::from_points
//! [`Dendrogram::average_linkage_condensed`]: dln_cluster::Dendrogram::average_linkage_condensed
//! [`KMedoids`]: dln_cluster::KMedoids
//! [`build_sharded`]: dln_org::build_sharded

use std::fmt::Write as _;
use std::time::Instant;

use dln_bench::{git_commit, host_threads, thread_sweep};
use dln_cluster::{CondensedMatrix, CosinePoints, Dendrogram, KMedoids};
use dln_org::{build_sharded, OrgContext, SearchConfig, ShardPolicy, ShardedBuild};
use dln_synth::TagCloudConfig;

/// Largest attribute count at which the dense oracle path also runs and
/// merge sequences are bit-compared (dense is `n × n`; 1500² f32 ≈ 9 MB).
const ORACLE_MAX_N: usize = 1_500;

/// Iteration cap for the stage-3 k-medoids fit — bounds the stage's
/// wall-clock deterministically; convergence typically lands well under it.
const KMEDOIDS_MAX_ITER: usize = 10;

struct Args {
    attrs: usize,
    seed: u64,
    iters: usize,
    kmedoids_k: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        attrs: 50_000,
        seed: 42,
        iters: 64,
        kmedoids_k: 16,
        out: "BENCH_scale.json".to_string(),
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
            "--kmedoids-k" => {
                args.kmedoids_k = need(i + 1).parse().expect("--kmedoids-k: integer");
                i += 2;
            }
            "--out" => {
                args.out = need(i + 1).to_string();
                i += 2;
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: --attrs <n> --seed <n> --iters <n> --kmedoids-k <k> --out <path>"
                );
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

/// One timed sharded build (partition + searches + stitch, plateau stop
/// disabled for comparability across cells).
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
    let n = ctx.n_attrs();
    if ctx.n_tags() == 0 || n < 2 {
        eprintln!("error: --attrs {} produced a degenerate lake", args.attrs);
        std::process::exit(2);
    }
    eprintln!(
        "context: {} attrs, {} tags, {} tables",
        n,
        ctx.n_tags(),
        ctx.n_tables()
    );
    let units: Vec<&[f32]> = (0..n as u32).map(|a| ctx.attr_unit(a)).collect();
    let points = CosinePoints::new(units);

    let sweep = thread_sweep();
    let mut stage_lines = Vec::new();
    let mut construction_lines = Vec::new();
    let mut condensed_bytes = 0usize;
    let mut dense_baseline = 0usize;
    let mut oracle_checked = false;
    let mut spectrum_json = "null".to_string();
    for &threads in &sweep {
        rayon::with_num_threads(threads, || {
            // Stage 1: condensed pairwise build over every attribute.
            let start = Instant::now();
            let cond = CondensedMatrix::from_points(&points);
            let pairwise_secs = start.elapsed().as_secs_f64();
            condensed_bytes = cond.bytes();
            dense_baseline = cond.dense_baseline_bytes();
            eprintln!(
                "pairwise @ {threads} thread(s): {:.1} ms, {} entries, {:.3} GB condensed \
                 ({:.4} of dense baseline)",
                pairwise_secs * 1e3,
                cond.entries(),
                condensed_bytes as f64 / 1e9,
                condensed_bytes as f64 / dense_baseline as f64,
            );

            // Stage 2: NN-chain average linkage over the condensed store
            // (consumes it — the store *is* the working memory).
            let start = Instant::now();
            let dend = Dendrogram::average_linkage_condensed(cond);
            let cluster_secs = start.elapsed().as_secs_f64();
            eprintln!(
                "clustering @ {threads} thread(s): {:.1} ms, {} merges",
                cluster_secs * 1e3,
                dend.merges().len()
            );

            // Toy sizes: run the dense oracle and bit-compare merge sequences.
            if n <= ORACLE_MAX_N {
                let dense = Dendrogram::average_linkage_dense(&points);
                let same = dense.merges().len() == dend.merges().len()
                    && dense.merges().iter().zip(dend.merges()).all(|(a, b)| {
                        a.a == b.a
                            && a.b == b.b
                            && a.size == b.size
                            && a.dist.to_bits() == b.dist.to_bits()
                    });
                assert!(
                    same,
                    "condensed merge sequence diverged from the dense oracle \
                     (n = {n}, threads = {threads})"
                );
                oracle_checked = true;
                eprintln!("oracle @ {threads} thread(s): dense merge sequence bit-identical");
            }

            // Stage 3: matrix-free k-medoids over the full attribute set.
            let k = args.kmedoids_k.clamp(1, n);
            let start = Instant::now();
            let km = KMedoids::fit_with(&points, k, args.seed, KMEDOIDS_MAX_ITER);
            let kmedoids_secs = start.elapsed().as_secs_f64();
            eprintln!(
                "kmedoids @ {threads} thread(s): {:.1} ms, k = {k}, cost {:.4}, {} iteration(s)",
                kmedoids_secs * 1e3,
                km.cost,
                km.iterations
            );
            stage_lines.push(format!(
                "    {{ \"threads\": {threads}, \"pairwise_seconds\": {pairwise_secs:.6}, \"clustering_seconds\": {cluster_secs:.6}, \"merges\": {}, \"kmedoids_seconds\": {kmedoids_secs:.6}, \"kmedoids_k\": {k}, \"kmedoids_cost\": {:.9}, \"kmedoids_iterations\": {} }}",
                dend.merges().len(),
                km.cost,
                km.iterations
            ));

            // Stage 4: sharded construction, auto policy vs the fixed-4 baseline.
            for &shards in &[ShardPolicy::Auto, ShardPolicy::Fixed(4)] {
                let (secs, build) = timed_build(&bench.lake, args.seed, args.iters, shards);
                let eff = build.effectiveness();
                let knee = build
                    .shard_spectrum
                    .as_ref()
                    .map(|s| s.knee.to_string())
                    .unwrap_or_else(|| "null".to_string());
                if let Some(spec) = &build.shard_spectrum {
                    let costs: Vec<String> = spec.costs.iter().map(|c| format!("{c:.9}")).collect();
                    spectrum_json = format!(
                        "{{ \"candidates\": {:?}, \"costs\": [{}], \"knee\": {} }}",
                        spec.candidates,
                        costs.join(", "),
                        spec.knee
                    );
                }
                eprintln!(
                    "construction shards={shards} @ {threads} thread(s): {:.1} ms, \
                     effectiveness {eff:.6}, {} shards built, {} proposals",
                    secs * 1e3,
                    build.n_shards(),
                    build.total_iterations()
                );
                construction_lines.push(format!(
                    "    {{ \"threads\": {threads}, \"shards\": \"{shards}\", \"auto_knee\": {knee}, \"seconds\": {secs:.6}, \"effectiveness\": {eff:.9}, \"n_shards_built\": {}, \"iterations\": {} }}",
                    build.n_shards(),
                    build.total_iterations()
                ));
            }
        });
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"scale\",");
    let _ = writeln!(json, "  \"git_commit\": \"{}\",", git_commit());
    let _ = writeln!(
        json,
        "  \"lake\": {{ \"generator\": \"tagcloud\", \"n_attrs\": {}, \"n_tags\": {}, \"n_tables\": {}, \"seed\": {} }},",
        n,
        ctx.n_tags(),
        ctx.n_tables(),
        args.seed
    );
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    let _ = writeln!(json, "  \"proposal_budget_per_shard\": {},", args.iters);
    let _ = writeln!(json, "  \"condensed_bytes\": {condensed_bytes},");
    let _ = writeln!(json, "  \"dense_baseline_bytes\": {dense_baseline},");
    let _ = writeln!(
        json,
        "  \"condensed_vs_dense\": {:.6},",
        condensed_bytes as f64 / dense_baseline as f64
    );
    let _ = writeln!(json, "  \"oracle_bit_compared\": {oracle_checked},");
    let _ = writeln!(json, "  \"auto_spectrum\": {spectrum_json},");
    let _ = writeln!(json, "  \"stages\": [");
    let _ = writeln!(json, "{}", stage_lines.join(",\n"));
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"construction\": [");
    let _ = writeln!(json, "{}", construction_lines.join(",\n"));
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&args.out, &json).expect("write BENCH_scale.json");
    println!("{json}");
    eprintln!("wrote {}", args.out);
}
