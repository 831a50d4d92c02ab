//! Evaluator performance benchmark: emits `BENCH_eval.json`.
//!
//! Measures, on a ~2k-attribute TagCloud lake:
//!
//! 1. **Full-recompute latency** of the evaluator at a sweep of thread
//!    counts (the parallel reach DP over queries);
//! 2. **Incremental-delta throughput** (proposals/second for an
//!    apply → rollback → undo cycle over the tag states) for the cached
//!    parallel path at one thread and at the widest thread count, and for
//!    the seed revision's algorithm (`apply_delta_uncached`) at one thread —
//!    so the caching-only speedup is separated from the threading speedup;
//! 3. The derived speedups.
//!
//! Flags: `--attrs <n>` target attribute count (default 2000), `--seed <n>`,
//! `--proposals <n>` proposals per throughput measurement (default 300),
//! `--out <path>` JSON output path (default `BENCH_eval.json`).

use std::fmt::Write as _;
use std::time::Instant;

use dln_bench::{git_commit, host_threads, thread_sweep};
use dln_org::{clustering_org, ops, Evaluator, NavConfig, OrgContext, Representatives};
use dln_synth::TagCloudConfig;

struct Args {
    attrs: usize,
    seed: u64,
    proposals: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        attrs: 2000,
        seed: 42,
        proposals: 300,
        out: "BENCH_eval.json".to_string(),
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
            "--proposals" => {
                args.proposals = need(i + 1).parse().expect("--proposals: integer");
                i += 2;
            }
            "--out" => {
                args.out = need(i + 1).to_string();
                i += 2;
            }
            "--help" | "-h" => {
                eprintln!("flags: --attrs <n> --seed <n> --proposals <n> --out <path>");
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

/// Time one full recompute (mean of `reps` runs after one warm-up).
fn time_full_recompute(
    ev: &mut Evaluator,
    ctx: &OrgContext,
    org: &dln_org::Organization,
    reps: usize,
) -> f64 {
    ev.recompute_full(ctx, org);
    let start = Instant::now();
    for _ in 0..reps {
        ev.recompute_full(ctx, org);
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// Proposals/second for apply → rollback → undo cycles over the tag states.
/// `uncached` selects the seed-baseline algorithm.
fn delta_throughput(
    ev: &mut Evaluator,
    ctx: &OrgContext,
    org: &mut dln_org::Organization,
    n_proposals: usize,
    uncached: bool,
) -> f64 {
    let n_tags = ctx.n_tags() as u32;
    let mut reach = Vec::new();
    let mut applied = 0usize;
    let start = Instant::now();
    let mut t = 0u32;
    while applied < n_proposals {
        let s = org.tag_state(t % n_tags);
        t = t.wrapping_add(1);
        ev.reachability_into(&mut reach);
        let outcome = ops::try_add_parent(org, ctx, s, &reach)
            .or_else(|| ops::try_delete_parent(org, ctx, s, &reach));
        let Some(outcome) = outcome else { continue };
        let (undo, _stats) = if uncached {
            ev.apply_delta_uncached(ctx, org, &outcome.dirty_parents)
        } else {
            ev.apply_delta(ctx, org, &outcome.dirty_parents)
        };
        ev.rollback(undo);
        ops::undo(org, ctx, outcome);
        applied += 1;
    }
    applied as f64 / start.elapsed().as_secs_f64()
}

/// The seed revision's 4-accumulator dot kernel, kept verbatim as the A/B
/// baseline for the 8-lane widening of `dln_embed::dot`.
fn dot_four_lane(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let chunks = n / 4 * 4;
    let mut i = 0;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    while i < chunks {
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
        i += 4;
    }
    let mut tail = 0.0f32;
    while i < n {
        tail += a[i] * b[i];
        i += 1;
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// Seconds for `passes` full mat-vec passes of `kernel` over the context's
/// attribute-unit matrix (the evaluator's dominant inner loop shape).
fn time_kernel(
    ctx: &OrgContext,
    query: &[f32],
    passes: usize,
    kernel: fn(&[f32], &[f32]) -> f32,
) -> f64 {
    let mut sink = 0.0f32;
    let start = Instant::now();
    for _ in 0..passes {
        for a in 0..ctx.n_attrs() as u32 {
            sink += kernel(ctx.attr_unit(a), query);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    secs
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
    let mut org = clustering_org(&ctx);
    let reps = Representatives::exact(&ctx);
    eprintln!(
        "context: {} attrs, {} tags, {} tables; organization: {} slots",
        ctx.n_attrs(),
        ctx.n_tags(),
        ctx.n_tables(),
        org.n_slots()
    );

    let mut ev = Evaluator::new(&ctx, &org, NavConfig::default(), &reps);

    // 1. Full-recompute latency across thread counts (honors DLN_THREADS).
    let sweep = thread_sweep();
    let mut full_lines = Vec::new();
    let mut full_t1 = f64::NAN;
    let mut full_best = f64::INFINITY;
    for &threads in &sweep {
        let secs = rayon::with_num_threads(threads, || time_full_recompute(&mut ev, &ctx, &org, 3));
        eprintln!("full recompute @ {threads} thread(s): {:.1} ms", secs * 1e3);
        if threads == 1 {
            full_t1 = secs;
        }
        full_best = full_best.min(secs);
        full_lines.push(format!(
            "    {{ \"threads\": {threads}, \"seconds\": {secs:.6} }}"
        ));
    }

    // 2. Delta throughput: cached @1, cached @max sweep width, baseline @1.
    let (cached_t1, baseline_t1) = rayon::with_num_threads(1, || {
        (
            delta_throughput(&mut ev, &ctx, &mut org, args.proposals, false),
            delta_throughput(&mut ev, &ctx, &mut org, args.proposals, true),
        )
    });
    eprintln!("delta cached @ 1 thread: {cached_t1:.1} proposals/s");
    eprintln!("delta seed baseline @ 1 thread: {baseline_t1:.1} proposals/s");
    let max_threads = *sweep.last().unwrap_or(&1);
    // Only re-measure at the sweep's widest width when it differs from 1,
    // so the JSON never carries a duplicate "cached_threads1" key.
    let cached_tmax = if max_threads > 1 {
        let t = rayon::with_num_threads(max_threads, || {
            delta_throughput(&mut ev, &ctx, &mut org, args.proposals, false)
        });
        eprintln!("delta cached @ {max_threads} thread(s): {t:.1} proposals/s");
        Some(t)
    } else {
        None
    };

    // 3. Dot-kernel A/B: the seed 4-lane kernel vs the widened 8-lane
    //    `dln_embed::dot`, on mat-vec passes over the attribute-unit matrix.
    let query: Vec<f32> = ctx.attr_unit(0).to_vec();
    let passes = (2_000_000 / ctx.n_attrs()).max(16);
    time_kernel(&ctx, &query, passes / 4, dot_four_lane); // warm-up
    let four_lane_secs = time_kernel(&ctx, &query, passes, dot_four_lane);
    let eight_lane_secs = time_kernel(&ctx, &query, passes, dln_embed::dot);
    let kernel_speedup = four_lane_secs / eight_lane_secs;
    eprintln!(
        "dot kernel ({} passes x {} rows, dim {}): 4-lane {:.1} ms, 8-lane {:.1} ms ({kernel_speedup:.2}x)",
        passes,
        ctx.n_attrs(),
        ctx.dim(),
        four_lane_secs * 1e3,
        eight_lane_secs * 1e3
    );

    let parallel_speedup = full_t1 / full_best;
    let cache_speedup = cached_t1 / baseline_t1;
    eprintln!(
        "parallel full-recompute speedup: {parallel_speedup:.2}x; \
         single-thread caching speedup: {cache_speedup:.2}x"
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"evaluator\",");
    let _ = writeln!(json, "  \"git_commit\": \"{}\",", git_commit());
    let _ = writeln!(
        json,
        "  \"lake\": {{ \"generator\": \"tagcloud\", \"n_attrs\": {}, \"n_tags\": {}, \"n_tables\": {}, \"seed\": {} }},",
        ctx.n_attrs(),
        ctx.n_tags(),
        ctx.n_tables(),
        args.seed
    );
    let _ = writeln!(
        json,
        "  \"organization\": {{ \"n_slots\": {}, \"n_queries\": {} }},",
        org.n_slots(),
        ev.n_queries()
    );
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    let _ = writeln!(json, "  \"full_recompute\": [");
    let _ = writeln!(json, "{}", full_lines.join(",\n"));
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"delta_proposals_per_sec\": {{");
    let _ = writeln!(json, "    \"cached_threads1\": {cached_t1:.2},");
    if let Some(t) = cached_tmax {
        let _ = writeln!(json, "    \"cached_threads{max_threads}\": {t:.2},");
    }
    let _ = writeln!(json, "    \"seed_baseline_threads1\": {baseline_t1:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"dot_kernel\": {{");
    let _ = writeln!(
        json,
        "    \"rows\": {}, \"dim\": {}, \"passes\": {passes},",
        ctx.n_attrs(),
        ctx.dim()
    );
    let _ = writeln!(json, "    \"four_lane_seconds\": {four_lane_secs:.6},");
    let _ = writeln!(json, "    \"eight_lane_seconds\": {eight_lane_secs:.6},");
    let _ = writeln!(json, "    \"speedup\": {kernel_speedup:.3}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"speedups\": {{");
    let _ = writeln!(
        json,
        "    \"full_recompute_parallel\": {parallel_speedup:.3},"
    );
    let _ = writeln!(
        json,
        "    \"delta_caching_single_thread\": {cache_speedup:.3}"
    );
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write(&args.out, &json).expect("write BENCH_eval.json");
    println!("{json}");
    eprintln!("wrote {}", args.out);
}
