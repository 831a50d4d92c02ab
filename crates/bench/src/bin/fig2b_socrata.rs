//! **Figure 2(b)** — Success probability on the Socrata lake (§4.3.4).
//!
//! The paper partitions the Socrata crawl's 11,083 tags into ten groups
//! with k-medoids, optimizes one organization per group (12 hours at full
//! scale on their setup, using the 10% representative approximation), and
//! compares the resulting 10-dimensional organization against "the current
//! state of navigation in data portals using only tags" — the flat
//! baseline. Reported averages: **0.38** for the 10-dim organization vs
//! **0.12** for tag-only navigation.
//!
//! The default run uses a 10%-scale Socrata-like lake (`--full` for paper
//! scale).

use dln_bench::{curve_summary, print_table, write_csv, ExpArgs};
use dln_org::{
    success::DEFAULT_THETA, MultiDimConfig, MultiDimOrganization, NavConfig, OrganizerBuilder,
    SearchConfig,
};
use dln_synth::SocrataConfig;

fn main() {
    let args = ExpArgs::parse(0.1);
    let scale = args.effective_scale();
    let cfg = SocrataConfig {
        seed: args.seed,
        ..SocrataConfig::paper().scaled(scale)
    };
    eprintln!(
        "generating Socrata-like lake: {} tables / {} tags (scale {scale})",
        cfg.n_tables, cfg.n_tags
    );
    let socrata = cfg.generate();
    let lake = &socrata.lake;
    eprintln!("{}", lake.stats());

    let nav = NavConfig { gamma: args.gamma };
    let search = SearchConfig {
        nav,
        rep_fraction: 0.1, // §4.3.4: representative set = 10% of attributes
        seed: args.seed,
        ..Default::default()
    };

    // Flat baseline: tag-only navigation.
    let t0 = std::time::Instant::now();
    let flat = OrganizerBuilder::new(lake)
        .search_config(search.clone())
        .build_flat();
    let flat_curve = flat.success_curve(lake, DEFAULT_THETA);
    let flat_secs = t0.elapsed().as_secs_f64();
    eprintln!(
        "flat baseline: {} ({flat_secs:.1}s)",
        curve_summary(&flat_curve.values())
    );

    // Ten-dimensional organization.
    let t0 = std::time::Instant::now();
    let md = MultiDimOrganization::build(
        lake,
        &MultiDimConfig {
            n_dims: 10,
            search: search.clone(),
            partition_seed: args.seed ^ 0x50C,
        },
    );
    let build_secs = t0.elapsed().as_secs_f64();
    let md_curve = md.success_curve(lake, DEFAULT_THETA);
    eprintln!(
        "10-dim organization: {} (built in {build_secs:.1}s wall; slowest dimension {:.1}s)",
        curve_summary(&md_curve.values()),
        md.parallel_construction_time().as_secs_f64()
    );

    println!("\nFigure 2(b) — success probability on the Socrata lake");
    println!("paper: 10-dim avg 0.38 vs tag-only flat avg 0.12 (ratio ~3.2x)\n");
    let flat_vals = flat_curve.values();
    let md_vals = md_curve.values();
    print_table(
        &["organization", "avg success", "p50", "seconds"],
        &[
            vec![
                "flat (tags only)".into(),
                format!("{:.4}", flat_curve.mean),
                format!("{:.4}", flat_vals[flat_vals.len() / 2]),
                format!("{flat_secs:.1}"),
            ],
            vec![
                "10-dim".into(),
                format!("{:.4}", md_curve.mean),
                format!("{:.4}", md_vals[md_vals.len() / 2]),
                format!("{build_secs:.1}"),
            ],
        ],
    );
    println!(
        "\nmeasured ratio: {:.2}x (paper: ~3.2x)",
        md_curve.mean / flat_curve.mean.max(1e-12)
    );
    let cols: Vec<(&str, &[f64])> = vec![
        ("flat", flat_vals.as_slice()),
        ("ten_dim", md_vals.as_slice()),
    ];
    let path = write_csv(&args.out, "fig2b_socrata.csv", &cols).expect("csv written");
    println!("curves written to {}", path.display());
}
