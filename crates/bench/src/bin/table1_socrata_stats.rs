//! **Table 1** — Statistics of the 10 organizations of the Socrata lake
//! (§4.3.4).
//!
//! The paper's table reports, for each of the ten k-medoids tag clusters,
//! the number of tags, attributes, tables, and evaluation representatives.
//! Cluster sizes are heavily skewed (2,031 tags in the largest dimension
//! down to 43 in the smallest), because tag popularity in open-data
//! portals is Zipfian.

use dln_bench::{print_table, write_csv, ExpArgs};
use dln_org::{MultiDimConfig, MultiDimOrganization, NavConfig, SearchConfig};
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
    let md = MultiDimOrganization::build(
        lake,
        &MultiDimConfig {
            n_dims: 10,
            search: SearchConfig {
                nav: NavConfig { gamma: args.gamma },
                rep_fraction: 0.1,
                seed: args.seed,
                ..Default::default()
            },
            partition_seed: args.seed ^ 0x50C,
        },
    );
    let stats = md.dim_stats();
    println!("\nTable 1 — statistics of the 10 organizations of the Socrata lake");
    println!(
        "paper (full scale): tags 2,031..43; attrs 28,248..118; tables 3,284..33; reps = 10% of attrs\n"
    );
    let rows: Vec<Vec<String>> = stats
        .iter()
        .enumerate()
        .map(|(i, s)| {
            vec![
                format!("{}", i + 1),
                format!("{}", s.n_tags),
                format!("{}", s.n_attrs),
                format!("{}", s.n_tables),
                format!("{}", s.n_reps),
            ]
        })
        .collect();
    print_table(&["Org", "#Tags", "#Atts", "#Tables", "#Reps"], &rows);
    let skew = stats.first().map(|s| s.n_tags).unwrap_or(0) as f64
        / stats.last().map(|s| s.n_tags.max(1)).unwrap_or(1) as f64;
    println!(
        "\nskew (largest/smallest dimension by tags): {skew:.1}x (paper: {:.1}x)",
        2031.0 / 43.0
    );
    let tags: Vec<f64> = stats.iter().map(|s| s.n_tags as f64).collect();
    let attrs: Vec<f64> = stats.iter().map(|s| s.n_attrs as f64).collect();
    let tables: Vec<f64> = stats.iter().map(|s| s.n_tables as f64).collect();
    let reps: Vec<f64> = stats.iter().map(|s| s.n_reps as f64).collect();
    let cols: Vec<(&str, &[f64])> = vec![
        ("tags", tags.as_slice()),
        ("attrs", attrs.as_slice()),
        ("tables", tables.as_slice()),
        ("reps", reps.as_slice()),
    ];
    let path = write_csv(&args.out, "table1_socrata_stats.csv", &cols).expect("csv written");
    println!("written to {}", path.display());
}
