//! **Figure 2(a)** — Success probability of organizations on the TagCloud
//! benchmark (paper §4.3.1).
//!
//! Reproduced series, each a per-table success-probability curve sorted
//! ascending (θ = 0.9):
//!
//! * `baseline`       — the flat tag organization (paper avg ≈ 0.016);
//! * `clustering`     — agglomerative hierarchy, branching factor 2
//!   (≈ 10× the baseline);
//! * `1-dim` … `4-dim` — local-search-optimized organizations, tags
//!   partitioned by k-medoids (1-dim improves clustering ≈ 3×; 2-dim avg
//!   ≈ 0.426; more dimensions keep improving);
//! * `2-dim approx`   — 2-dim built with 10% attribute representatives
//!   (should be indistinguishable from `2-dim`);
//! * `enriched 2-dim` — 2-dim on the enriched benchmark (each attribute
//!   gains its second-closest tag), lifting the low-success tail.
//!
//! Run `--full` for the paper-scale benchmark (365 tags / 2,651 attrs);
//! the default scale is 40% for a fast turnaround.

use dln_bench::{curve_summary, print_table, write_csv, ExpArgs};
use dln_org::{
    success::DEFAULT_THETA, MultiDimConfig, MultiDimOrganization, NavConfig, OrganizerBuilder,
    SearchConfig,
};
use dln_synth::TagCloudConfig;

fn main() {
    let args = ExpArgs::parse(0.4);
    let scale = args.effective_scale();
    let cfg = TagCloudConfig {
        seed: args.seed,
        ..TagCloudConfig::paper().scaled(scale)
    };
    eprintln!(
        "generating TagCloud: {} tags, {} attrs target (scale {scale})",
        cfg.n_tags, cfg.n_attrs_target
    );
    let bench = cfg.generate();
    let lake = &bench.lake;
    eprintln!(
        "lake: {} tables / {} attrs / {} tags",
        lake.n_tables(),
        lake.n_attrs(),
        lake.n_tags()
    );
    let nav = NavConfig { gamma: args.gamma };
    let search = SearchConfig {
        nav,
        seed: args.seed,
        ..Default::default()
    };

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut columns: Vec<(String, Vec<f64>)> = Vec::new();
    let mut record = |name: &str, values: Vec<f64>, secs: f64| {
        eprintln!("{name}: {} ({secs:.1}s)", curve_summary(&values));
        rows.push(vec![
            name.to_string(),
            format!(
                "{:.4}",
                values.iter().sum::<f64>() / values.len().max(1) as f64
            ),
            format!("{secs:.1}"),
        ]);
        columns.push((name.to_string(), values));
    };

    // Baseline: flat tag organization.
    let t0 = std::time::Instant::now();
    let flat = OrganizerBuilder::new(lake)
        .search_config(search.clone())
        .build_flat();
    let curve = flat.success_curve(lake, DEFAULT_THETA);
    record("baseline", curve.values(), t0.elapsed().as_secs_f64());

    // Clustering (branching factor 2, no optimization).
    let t0 = std::time::Instant::now();
    let clus = OrganizerBuilder::new(lake)
        .search_config(search.clone())
        .build_clustering();
    let curve = clus.success_curve(lake, DEFAULT_THETA);
    record("clustering", curve.values(), t0.elapsed().as_secs_f64());

    // N-dimensional optimized organizations.
    for n_dims in 1..=4usize {
        let t0 = std::time::Instant::now();
        let md = MultiDimOrganization::build(
            lake,
            &MultiDimConfig {
                n_dims,
                search: search.clone(),
                partition_seed: args.seed ^ 0xD13,
            },
        );
        let curve = md.success_curve(lake, DEFAULT_THETA);
        record(
            &format!("{n_dims}-dim"),
            curve.values(),
            t0.elapsed().as_secs_f64(),
        );
    }

    // 2-dim with the 10% representative approximation (§3.4).
    let t0 = std::time::Instant::now();
    let md_approx = MultiDimOrganization::build(
        lake,
        &MultiDimConfig {
            n_dims: 2,
            search: SearchConfig {
                rep_fraction: 0.1,
                ..search.clone()
            },
            partition_seed: args.seed ^ 0xD13,
        },
    );
    let curve = md_approx.success_curve(lake, DEFAULT_THETA);
    record("2-dim approx", curve.values(), t0.elapsed().as_secs_f64());

    // Ablation: the local search from an *uninformed* (random binary)
    // initial organization. In our synthetic embedding space the informed
    // dendrogram is already near a local optimum, so this series is where
    // the optimizer's contribution is visible (see EXPERIMENTS.md).
    let t0 = std::time::Instant::now();
    let ctx = dln_org::OrgContext::full(lake);
    let rand_init = dln_org::random_org(&ctx, args.seed ^ 0xAB1E);
    {
        let built = dln_org::builder::BuiltOrganization {
            organization: rand_init.clone(),
            ctx: ctx.clone(),
            nav,
            search_stats: None,
        };
        let curve = built.success_curve(lake, DEFAULT_THETA);
        record("random init", curve.values(), t0.elapsed().as_secs_f64());
    }
    let t0 = std::time::Instant::now();
    {
        let mut org = rand_init;
        let stats = dln_org::search::optimize(&ctx, &mut org, &search);
        let built = dln_org::builder::BuiltOrganization {
            organization: org,
            ctx: ctx.clone(),
            nav,
            search_stats: Some(stats),
        };
        let curve = built.success_curve(lake, DEFAULT_THETA);
        record(
            "1-dim (random init)",
            curve.values(),
            t0.elapsed().as_secs_f64(),
        );
    }

    // Enriched TagCloud (second-closest tag added to every attribute).
    let t0 = std::time::Instant::now();
    let enriched = bench.enrich();
    let md_enriched = MultiDimOrganization::build(
        &enriched.lake,
        &MultiDimConfig {
            n_dims: 2,
            search: search.clone(),
            partition_seed: args.seed ^ 0xD13,
        },
    );
    let curve = md_enriched.success_curve(&enriched.lake, DEFAULT_THETA);
    record("enriched 2-dim", curve.values(), t0.elapsed().as_secs_f64());

    println!("\nFigure 2(a) — success probability on TagCloud (sorted per-table curves in CSV)");
    println!(
        "paper shape: baseline(0.016) << clustering(~10x) << 1-dim(~3x clustering) < 2-dim(0.426) <= 3-dim <= 4-dim; enriched lifts the tail\n"
    );
    print_table(&["organization", "avg success", "build+eval s"], &rows);
    let cols: Vec<(&str, &[f64])> = columns
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_slice()))
        .collect();
    let path = write_csv(&args.out, "fig2a_tagcloud.csv", &cols).expect("csv written");
    println!("\ncurves written to {}", path.display());
}
