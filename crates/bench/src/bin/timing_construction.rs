//! **§4.3.2 / §4.3.3 timing** — Construction time of TagCloud
//! organizations.
//!
//! The paper reports (full TagCloud, their setup):
//!
//! | organization   | seconds |
//! |----------------|---------|
//! | clustering     | 0.2     |
//! | 1-dim          | 231.3   |
//! | 2-dim          | 148.9   |
//! | 3-dim          | 113.5   |
//! | 4-dim          | 112.7   |
//! | enriched 2-dim | 217.0   |
//! | 2-dim approx   | 30.3    |
//!
//! Two shape claims matter (absolute numbers are hardware- and
//! implementation-dependent): multi-dimensional construction is *faster*
//! than 1-dim because dimensions optimize independently in parallel and
//! each dimension is smaller; and the 10% representative approximation
//! cuts 2-dim construction by roughly 5× with negligible quality loss.

use dln_bench::{print_table, write_csv, ExpArgs};
use dln_org::{MultiDimConfig, MultiDimOrganization, NavConfig, OrganizerBuilder, SearchConfig};
use dln_synth::TagCloudConfig;

fn main() {
    let args = ExpArgs::parse(0.4);
    let scale = args.effective_scale();
    let cfg = TagCloudConfig {
        seed: args.seed,
        ..TagCloudConfig::paper().scaled(scale)
    };
    let bench = cfg.generate();
    let lake = &bench.lake;
    eprintln!(
        "TagCloud: {} tables / {} attrs / {} tags (scale {scale})",
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
    let paper = [
        ("clustering", 0.2),
        ("1-dim", 231.3),
        ("2-dim", 148.9),
        ("3-dim", 113.5),
        ("4-dim", 112.7),
        ("enriched 2-dim", 217.0),
        ("2-dim approx", 30.3),
    ];
    let mut measured: Vec<f64> = Vec::new();

    // clustering
    let t0 = std::time::Instant::now();
    let _ = OrganizerBuilder::new(lake)
        .search_config(search.clone())
        .build_clustering();
    measured.push(t0.elapsed().as_secs_f64());

    // n-dim
    for n_dims in 1..=4usize {
        let t0 = std::time::Instant::now();
        let _ = MultiDimOrganization::build(
            lake,
            &MultiDimConfig {
                n_dims,
                search: search.clone(),
                partition_seed: args.seed ^ 0xD13,
            },
        );
        measured.push(t0.elapsed().as_secs_f64());
    }

    // enriched 2-dim
    let t0 = std::time::Instant::now();
    let enriched = bench.enrich();
    let _ = MultiDimOrganization::build(
        &enriched.lake,
        &MultiDimConfig {
            n_dims: 2,
            search: search.clone(),
            partition_seed: args.seed ^ 0xD13,
        },
    );
    measured.push(t0.elapsed().as_secs_f64());

    // 2-dim approx
    let t0 = std::time::Instant::now();
    let _ = MultiDimOrganization::build(
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
    measured.push(t0.elapsed().as_secs_f64());

    println!("\n§4.3.2/§4.3.3 — organization construction time on TagCloud");
    println!("(absolute numbers differ from the paper's setup; the shape is what matters)\n");
    let rows: Vec<Vec<String>> = paper
        .iter()
        .zip(&measured)
        .map(|((name, p), m)| vec![name.to_string(), format!("{p:.1}"), format!("{m:.2}")])
        .collect();
    print_table(&["organization", "paper s", "measured s"], &rows);
    let one_dim = measured[1];
    let two_dim = measured[2];
    let two_dim_approx = measured[6];
    println!(
        "\nshape checks: multi-dim faster than 1-dim? {} (2-dim {:.2}s vs 1-dim {:.2}s); approx speedup {:.1}x (paper: 4.9x)",
        if two_dim <= one_dim { "yes" } else { "no" },
        two_dim,
        one_dim,
        two_dim / two_dim_approx.max(1e-9)
    );
    let paper_col: Vec<f64> = paper.iter().map(|(_, p)| *p).collect();
    let cols: Vec<(&str, &[f64])> = vec![
        ("paper_seconds", paper_col.as_slice()),
        ("measured_seconds", measured.as_slice()),
    ];
    let path = write_csv(&args.out, "timing_construction.csv", &cols).expect("csv written");
    println!("written to {}", path.display());
}
