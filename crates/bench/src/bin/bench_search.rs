//! Local-search performance benchmark: emits `BENCH_search.json`.
//!
//! Measures, on a TagCloud lake:
//!
//! 1. **Construction front-end timings** at a sweep of thread counts:
//!    context admission scan (`OrgContext::full`) and the agglomerative
//!    initial organization (`clustering_org`, dominated by the pairwise
//!    distance matrix) — the phases parallelized by this revision;
//! 2. **Search wall-clock** of [`optimize`] at each thread count, with a
//!    fixed proposal budget so every run does the same work;
//! 3. The nested-loop reference walk ([`optimize_reference`], one worker)
//!    as the A/B baseline; every `optimize` run must end on its
//!    trajectory (`matches_reference`).
//!
//! Every search time is the median of [`REPEATS`] runs of the same walk.
//! The repeats are interleaved across the walks (one run of every walk,
//! then the next round), so a slow stretch of a shared host falls on all
//! of them instead of on the walks that happened to run during it. The
//! reference walk runs first in even rounds and last in odd ones, so the
//! order within a round favours neither side.
//!
//! Flags: `--attrs <n>` target attribute count (default 800), `--seed <n>`,
//! `--iters <n>` proposal budget per run (default 200), `--out <path>`
//! JSON output path (default `BENCH_search.json`).
//!
//! [`optimize`]: dln_org::search::optimize
//! [`optimize_reference`]: dln_org::search::optimize_reference

use std::fmt::Write as _;
use std::time::Instant;

use dln_bench::{git_commit, host_threads, thread_sweep};
use dln_org::search::{optimize, optimize_reference, SearchConfig, SearchStats};
use dln_org::{clustering_org, random_org, OrgContext, Organization};
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
        out: "BENCH_search.json".to_string(),
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

/// Runs per timed search. One 200-proposal walk takes ~0.2 s, and on a
/// shared 2-vCPU host single runs of the same walk differed by up to 45%.
const REPEATS: usize = 5;

/// The median of one walk's run times.
fn median(mut secs: Vec<f64>) -> f64 {
    secs.sort_by(f64::total_cmp);
    secs[secs.len() / 2]
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

    // 1. Construction front-end: context build + clustering init.
    let mut init_lines = Vec::new();
    for &threads in &sweep {
        let (ctx_secs, clus_secs, org) = rayon::with_num_threads(threads, || {
            let start = Instant::now();
            let ctx_t = OrgContext::full(&bench.lake);
            let ctx_secs = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let org = clustering_org(&ctx_t);
            (ctx_secs, start.elapsed().as_secs_f64(), org)
        });
        eprintln!(
            "init @ {threads} thread(s): context {:.1} ms, clustering ({} slots) {:.1} ms",
            ctx_secs * 1e3,
            org.n_slots(),
            clus_secs * 1e3
        );
        init_lines.push(format!(
            "    {{ \"threads\": {threads}, \"context_seconds\": {ctx_secs:.6}, \"clustering_seconds\": {clus_secs:.6} }}"
        ));
    }

    // 2. The reference walk (A/B baseline, one worker) and optimize at
    //    each thread count, repeats interleaved. A fixed proposal budget
    //    with the plateau stop disabled gives every run the same work.
    let cfg = SearchConfig {
        max_iters: args.iters,
        plateau_iters: args.iters.max(1),
        seed: args.seed,
        ..Default::default()
    };
    let timed = |search: fn(&OrgContext, &mut Organization, &SearchConfig) -> SearchStats| {
        let mut org = random_org(&ctx, args.seed ^ 0x0A11);
        let start = Instant::now();
        let stats = search(&ctx, &mut org, &cfg);
        (start.elapsed().as_secs_f64(), stats)
    };
    let mut ref_secs = Vec::with_capacity(REPEATS);
    let mut ref_stats = None;
    let mut cell_secs = vec![Vec::with_capacity(REPEATS); sweep.len()];
    let mut cell_stats = vec![None; sweep.len()];
    for repeat in 0..REPEATS {
        let mut reference = || {
            let (secs, stats) = rayon::with_num_threads(1, || timed(optimize_reference));
            ref_secs.push(secs);
            ref_stats = Some(stats);
        };
        if repeat % 2 == 0 {
            reference();
        }
        for (i, &threads) in sweep.iter().enumerate() {
            let (secs, stats) = rayon::with_num_threads(threads, || timed(optimize));
            cell_secs[i].push(secs);
            cell_stats[i] = Some(stats);
        }
        if repeat % 2 == 1 {
            reference();
        }
    }
    let ref_secs = median(ref_secs);
    let ref_stats = ref_stats.expect("at least one repeat");
    eprintln!(
        "reference walk: {:.1} ms for {} proposals",
        ref_secs * 1e3,
        ref_stats.iterations
    );
    let mut search_lines = Vec::new();
    for ((&threads, secs), stats) in sweep.iter().zip(cell_secs).zip(cell_stats) {
        let secs = median(secs);
        let stats = stats.expect("at least one repeat");
        let matches = stats.final_effectiveness.to_bits()
            == ref_stats.final_effectiveness.to_bits()
            && stats.iter_stats == ref_stats.iter_stats;
        eprintln!(
            "optimize @ {threads} thread(s): {:.1} ms, {} proposals, {} accepted, matches reference: {matches}",
            secs * 1e3,
            stats.iterations,
            stats.accepted
        );
        search_lines.push(format!(
            "    {{ \"threads\": {threads}, \"seconds\": {secs:.6}, \"iterations\": {}, \"accepted\": {}, \"final_effectiveness\": {:.9}, \"matches_reference\": {matches} }}",
            stats.iterations, stats.accepted, stats.final_effectiveness
        ));
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"search\",");
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
    let _ = writeln!(json, "  \"proposal_budget\": {},", args.iters);
    let _ = writeln!(json, "  \"repeats_per_search\": {REPEATS},");
    let _ = writeln!(json, "  \"init\": [");
    let _ = writeln!(json, "{}", init_lines.join(",\n"));
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"reference_serial\": {{ \"seconds\": {ref_secs:.6}, \"iterations\": {}, \"final_effectiveness\": {:.9} }},",
        ref_stats.iterations, ref_stats.final_effectiveness
    );
    let _ = writeln!(json, "  \"search\": [");
    let _ = writeln!(json, "{}", search_lines.join(",\n"));
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&args.out, &json).expect("write BENCH_search.json");
    println!("{json}");
    eprintln!("wrote {}", args.out);
}
