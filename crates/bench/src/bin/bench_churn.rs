//! Ingest-churn maintenance benchmark: emits `BENCH_churn.json`.
//!
//! The claim under test (DESIGN.md §5i): when a lake churns, incremental
//! maintenance — CDC change log → delta apply → localized re-search of
//! only the affected shards — publishes a comparable-quality organization
//! in a fraction of the wall-clock of rebuilding from scratch.
//!
//! Setup: a TagCloud lake built into a 4-shard served organization. Churn
//! is *localized*, as production ingest is: each batch's events (adds,
//! removes, retags) draw their labels from the tags of `--hot-shards`
//! of the initial shards, modelling a per-domain feed. Per batch, two
//! timed paths over the identical post-batch lake:
//!
//! * **incremental** — `Maintainer::ingest` each event (durable,
//!   checksummed, ack-after-fsync), then one
//!   `NavService::run_maintenance_cycle` (plan → delta apply → per-shard
//!   search → shard-scoped republish);
//! * **rebuild** — a from-scratch `build_sharded` over the same lake with
//!   the same search budget.
//!
//! Both results are scored with plain Eq 6 effectiveness (exact
//! representatives) so "comparable effectiveness" is measured, not
//! assumed. The summary reports total wall-clock for each path and the
//! speedup; the per-batch lines additionally carry how many shards the
//! incremental path actually searched and how many slots the republish
//! scope contained.
//!
//! Flags: `--attrs <n>` target attribute count (default 600), `--seed <n>`,
//! `--batches <n>` churn batches (default 4), `--events <n>` events per
//! batch (default 10), `--hot-shards <n>` initial shards whose labels
//! receive the churn (default 1), `--out <path>` (default
//! `BENCH_churn.json`).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use dln_bench::{git_commit, host_threads};
use dln_embed::TopicAccumulator;
use dln_lake::{AttrChange, ChangeEvent, DataLake};
use dln_org::{
    build_sharded, Evaluator, MaintConfig, Maintainer, NavConfig, OrgContext, Organization,
    Representatives, SearchConfig, ShardPolicy, ShardedBuild,
};
use dln_serve::{NavService, ServeConfig};
use dln_synth::TagCloudConfig;

struct Args {
    attrs: usize,
    seed: u64,
    batches: usize,
    events: usize,
    hot_shards: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        attrs: 600,
        seed: 42,
        batches: 4,
        events: 10,
        hot_shards: 1,
        out: "BENCH_churn.json".to_string(),
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
            "--batches" => {
                args.batches = need(i + 1).parse().expect("--batches: integer");
                i += 2;
            }
            "--events" => {
                args.events = need(i + 1).parse().expect("--events: integer");
                i += 2;
            }
            "--hot-shards" => {
                args.hot_shards = need(i + 1).parse().expect("--hot-shards: integer");
                i += 2;
            }
            "--out" => {
                args.out = need(i + 1).to_string();
                i += 2;
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: --attrs <n> --seed <n> --batches <n> --events <n> \
                     --hot-shards <n> --out <path>"
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

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dln_bench_churn_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service(build: &ShardedBuild) -> NavService {
    NavService::new(
        build.built.ctx.clone(),
        build.built.organization.clone(),
        build.built.nav,
        ServeConfig::default(),
    )
}

/// Deterministic splitmix64 — the benchmark's own randomness,
/// independent of any library RNG.
fn mix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A topic accumulator near `label`'s direction in `lake`, with a
/// deterministic nudge — so added attributes land inside the hot
/// region's geometry instead of scattering churn across shards.
fn topic_near(lake: &DataLake, label: &str, nudge: f32) -> TopicAccumulator {
    let tid = lake.tag_by_label(label).expect("hot label exists");
    let unit = &lake.tag(tid).unit_topic;
    let mut v: Vec<f32> = unit.clone();
    for (i, x) in v.iter_mut().enumerate() {
        *x += nudge * ((i % 3) as f32 - 1.0);
    }
    let mut acc = TopicAccumulator::new(lake.dim());
    acc.add(&v);
    acc
}

/// One batch of localized churn: adds, removes and retags whose labels
/// all come from `hot` (the hot shards' label set). `live` carries the
/// churn tables surviving from earlier batches.
fn churn_batch(
    lake: &DataLake,
    hot: &[String],
    live: &mut Vec<String>,
    batch: usize,
    n: usize,
    seed: u64,
) -> Vec<ChangeEvent> {
    let mut z = seed ^ (batch as u64).wrapping_mul(0x9E37_79B9);
    let mut events = Vec::with_capacity(n);
    for i in 0..n {
        let roll = mix(&mut z) % 4;
        if roll >= 2 || live.is_empty() {
            let name = format!("churn_b{batch}_t{i}");
            let l0 = hot[(mix(&mut z) as usize) % hot.len()].clone();
            let mut tags = vec![l0.clone()];
            if mix(&mut z).is_multiple_of(3) {
                tags.push(hot[(mix(&mut z) as usize) % hot.len()].clone());
            }
            events.push(ChangeEvent::TableAdded {
                name: name.clone(),
                tags,
                attrs: vec![AttrChange {
                    name: "c0".to_string(),
                    topic: topic_near(lake, &l0, 0.01 * (i as f32 + 1.0)),
                    n_values: 6,
                    tags: Vec::new(),
                }],
            });
            live.push(name);
        } else if roll == 0 {
            let ix = (mix(&mut z) as usize) % live.len();
            let name = live.swap_remove(ix);
            events.push(ChangeEvent::TableRemoved { name });
        } else {
            let ix = (mix(&mut z) as usize) % live.len();
            let name = live[ix].clone();
            let mut tags = vec![hot[(mix(&mut z) as usize) % hot.len()].clone()];
            if mix(&mut z).is_multiple_of(2) {
                tags.push(hot[(mix(&mut z) as usize) % hot.len()].clone());
            }
            events.push(ChangeEvent::TableRetagged { name, tags });
        }
    }
    events
}

/// Plain Eq 6 effectiveness (exact representatives).
fn effectiveness(ctx: &OrgContext, org: &Organization, nav: NavConfig) -> f64 {
    let reps = Representatives::exact(ctx);
    Evaluator::new(ctx, org, nav, &reps).effectiveness()
}

fn main() {
    let args = parse_args();
    eprintln!("generating TagCloud lake (~{} attrs) ...", args.attrs);
    let bench = TagCloudConfig {
        n_tags: (args.attrs / 12).max(16),
        n_attrs_target: args.attrs,
        store_values: false,
        seed: args.seed,
        ..TagCloudConfig::small()
    }
    .generate();
    let build_cfg = SearchConfig {
        max_iters: 200,
        plateau_iters: 60,
        seed: args.seed,
        shards: ShardPolicy::Fixed(4),
        ..SearchConfig::default()
    };
    let build = build_sharded(&bench.lake, &build_cfg);
    let ctx = &build.built.ctx;
    eprintln!(
        "context: {} attrs, {} tags, {} tables, {} shards",
        ctx.n_attrs(),
        ctx.n_tags(),
        ctx.n_tables(),
        build.n_shards()
    );

    // The hot label set: every tag of the first `--hot-shards` initial
    // shards. All churn draws its labels from here.
    let hot_n = args.hot_shards.clamp(1, build.n_shards());
    let hot: Vec<String> = build.shard_tags[..hot_n]
        .iter()
        .flatten()
        .map(|&t| bench.lake.tag(t).label.clone())
        .collect();
    eprintln!(
        "hot region: {} labels across {hot_n} initial shard(s)",
        hot.len()
    );

    let svc = service(&build);
    let dir = tmp_dir("maint");
    let mut mcfg = MaintConfig::new(&dir);
    mcfg.search = build_cfg.clone();
    mcfg.slice = None;
    mcfg.rebalance_drift = 0.05;
    mcfg.cdc_path = None;
    let mut maint = Maintainer::for_build(&bench.lake, &build, mcfg).expect("open maintainer");

    let mut live: Vec<String> = Vec::new();
    let mut batch_lines = Vec::new();
    let mut inc_total = 0.0f64;
    let mut rebuild_total = 0.0f64;
    let mut final_inc_eff = 0.0f64;
    let mut final_rebuild_eff = 0.0f64;
    for batch in 0..args.batches {
        let events = churn_batch(maint.lake(), &hot, &mut live, batch, args.events, args.seed);

        let t0 = Instant::now();
        for ev in &events {
            maint.ingest(ev).expect("ingest");
        }
        let ingest_secs = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let report = svc.run_maintenance_cycle(&mut maint).expect("cycle");
        let inc_secs = t1.elapsed().as_secs_f64();
        assert!(report.epoch.is_some(), "each batch publishes a cycle");
        inc_total += ingest_secs + inc_secs;

        // From-scratch rebuild over the identical post-batch lake.
        let post_lake = maint.lake().clone();
        let t2 = Instant::now();
        let fresh = build_sharded(&post_lake, &build_cfg);
        let rebuild_secs = t2.elapsed().as_secs_f64();
        rebuild_total += rebuild_secs;

        let (mctx, morg) = svc.snapshot().owned_parts().expect("owned snapshot");
        let inc_eff = effectiveness(&mctx, &morg, svc.snapshot().nav());
        let rebuild_eff =
            effectiveness(&fresh.built.ctx, &fresh.built.organization, fresh.built.nav);
        final_inc_eff = inc_eff;
        final_rebuild_eff = rebuild_eff;
        eprintln!(
            "batch {batch}: {} events, incremental {:.3}s ({} of {} shards searched, \
             {} changed slots), rebuild {rebuild_secs:.3}s, effectiveness \
             {inc_eff:.6} vs {rebuild_eff:.6}",
            events.len(),
            ingest_secs + inc_secs,
            report.searched_shards,
            build.n_shards(),
            report.n_changed,
        );
        batch_lines.push(format!(
            "      {{ \"batch\": {batch}, \"events\": {}, \"ingest_seconds\": \
             {ingest_secs:.6}, \"incremental_seconds\": {inc_secs:.6}, \
             \"rebuild_seconds\": {rebuild_secs:.6}, \"searched_shards\": {}, \
             \"changed_slots\": {}, \"effectiveness_incremental\": {inc_eff:.9}, \
             \"effectiveness_rebuild\": {rebuild_eff:.9} }}",
            events.len(),
            report.searched_shards,
            report.n_changed,
        ));
    }

    let speedup = rebuild_total / inc_total.max(1e-9);
    eprintln!(
        "total: incremental {inc_total:.3}s vs rebuild {rebuild_total:.3}s \
         ({speedup:.2}x), final effectiveness {final_inc_eff:.6} vs \
         {final_rebuild_eff:.6} (gap {:+.6})",
        final_inc_eff - final_rebuild_eff
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"churn\",");
    let _ = writeln!(json, "  \"git_commit\": \"{}\",", git_commit());
    let _ = writeln!(json, "  \"host_threads\": {},", host_threads());
    let _ = writeln!(
        json,
        "  \"lake\": {{ \"generator\": \"tagcloud\", \"n_attrs\": {}, \"n_tags\": {}, \
         \"n_tables\": {}, \"seed\": {} }},",
        ctx.n_attrs(),
        ctx.n_tags(),
        ctx.n_tables(),
        args.seed
    );
    let _ = writeln!(json, "  \"n_shards\": {},", build.n_shards());
    let _ = writeln!(json, "  \"events_per_batch\": {},", args.events);
    let _ = writeln!(json, "  \"hot_shards\": {hot_n},");
    let _ = writeln!(json, "  \"batches\": [");
    let _ = writeln!(json, "{}", batch_lines.join(",\n"));
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"summary\": {{");
    let _ = writeln!(json, "    \"incremental_total_seconds\": {inc_total:.6},");
    let _ = writeln!(json, "    \"rebuild_total_seconds\": {rebuild_total:.6},");
    let _ = writeln!(json, "    \"speedup\": {speedup:.4},");
    let _ = writeln!(
        json,
        "    \"final_effectiveness_incremental\": {final_inc_eff:.9},"
    );
    let _ = writeln!(
        json,
        "    \"final_effectiveness_rebuild\": {final_rebuild_eff:.9},"
    );
    let _ = writeln!(
        json,
        "    \"effectiveness_gap\": {:.9}",
        final_inc_eff - final_rebuild_eff
    );
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write(&args.out, &json).expect("write BENCH_churn.json");
    println!("{json}");
    eprintln!("wrote {}", args.out);
    std::fs::remove_dir_all(&dir).ok();
}
