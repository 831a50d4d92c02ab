//! **Scalability study** — the paper's future-work item "a detailed
//! scalability study of our technique with respect to the size of data
//! lakes".
//!
//! Sweeps the Socrata-like lake over a range of scale factors and
//! measures, at each size: generation time, 10%-representative 2-dim
//! organization construction time (wall clock, parallel dimensions), the
//! resulting effectiveness, and the exact-evaluation time of the final
//! organization. Prints one row per scale and writes the sweep as CSV.
//!
//! `--scale` sets the *largest* factor of the sweep (default 0.2 — about
//! 1,500 tables; the paper's full crawl corresponds to 1.0).

use dln_bench::{print_table, write_csv, ExpArgs};
use dln_org::{MultiDimConfig, MultiDimOrganization, NavConfig, SearchConfig};
use dln_synth::SocrataConfig;

fn main() {
    let args = ExpArgs::parse(0.2);
    let top = args.effective_scale();
    let factors: Vec<f64> = [0.125, 0.25, 0.5, 1.0].iter().map(|f| f * top).collect();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 6];
    for &f in &factors {
        let cfg = SocrataConfig {
            seed: args.seed,
            store_values: false,
            ..SocrataConfig::paper().scaled(f)
        };
        let t0 = std::time::Instant::now();
        let socrata = cfg.generate();
        let gen_s = t0.elapsed().as_secs_f64();
        let lake = &socrata.lake;
        let t0 = std::time::Instant::now();
        let md = MultiDimOrganization::build(
            lake,
            &MultiDimConfig {
                n_dims: 2,
                search: SearchConfig {
                    nav: NavConfig { gamma: args.gamma },
                    rep_fraction: 0.1,
                    seed: args.seed,
                    ..Default::default()
                },
                partition_seed: args.seed,
            },
        );
        let build_s = t0.elapsed().as_secs_f64();
        let t0 = std::time::Instant::now();
        let eff = md.effectiveness(lake);
        let eval_s = t0.elapsed().as_secs_f64();
        eprintln!(
            "scale {f:.3}: {} tables / {} tags / {} attrs — gen {gen_s:.1}s build {build_s:.1}s eval {eval_s:.1}s eff {eff:.3}",
            lake.n_tables(),
            lake.n_tags(),
            lake.n_attrs()
        );
        rows.push(vec![
            format!("{f:.3}"),
            format!("{}", lake.n_tables()),
            format!("{}", lake.n_attrs()),
            format!("{gen_s:.2}"),
            format!("{build_s:.2}"),
            format!("{eval_s:.2}"),
            format!("{eff:.4}"),
        ]);
        for (c, v) in cols
            .iter_mut()
            .zip([f, lake.n_attrs() as f64, gen_s, build_s, eval_s, eff])
        {
            c.push(v);
        }
    }
    println!("\nScalability sweep (2-dim organizations, 10% representatives)");
    print_table(
        &[
            "scale",
            "tables",
            "attrs",
            "gen s",
            "build s",
            "eval s",
            "effectiveness",
        ],
        &rows,
    );
    // Growth-rate check: construction should scale roughly sub-quadratically
    // in the attribute count.
    if cols[1].len() >= 2 {
        let (a0, an) = (cols[1][0], *cols[1].last().unwrap());
        let (b0, bn) = (cols[3][0].max(1e-3), cols[3].last().unwrap().max(1e-3));
        let exponent = (bn / b0).ln() / (an / a0).ln();
        println!("\nempirical construction-time exponent vs attribute count: {exponent:.2}");
    }
    let named: Vec<(&str, &[f64])> = vec![
        ("scale", &cols[0]),
        ("attrs", &cols[1]),
        ("gen_seconds", &cols[2]),
        ("build_seconds", &cols[3]),
        ("eval_seconds", &cols[4]),
        ("effectiveness", &cols[5]),
    ];
    let path = write_csv(&args.out, "scalability.csv", &named).expect("csv written");
    println!("written to {}", path.display());
}
