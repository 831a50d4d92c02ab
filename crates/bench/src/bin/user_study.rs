//! **§4.4 user study** — navigation vs keyword search (simulated).
//!
//! The paper's 12-participant within-subject study found:
//!
//! * **H1**: no statistically significant difference in the *number* of
//!   relevant tables found (largest sessions: 44 navigation / 34 search);
//! * **H2**: result disjointness across participants was significantly
//!   *higher* for navigation (Mdn 0.985 vs 0.916, Mann–Whitney p=0.0019);
//! * only ≈5% of tables were found by both modalities;
//! * <1% of collected tables were judged irrelevant by the verifiers.
//!
//! This binary generates a Socrata-like lake, splits it into two
//! tag-disjoint sub-lakes (Socrata-2 / Socrata-3), builds organizations
//! and a BM25+expansion search engine per sub-lake, runs the simulated
//! participants through the latin-square schedule, and applies the same
//! statistics. See `DESIGN.md` §1 for why simulated participants preserve
//! the measurable claims.

use dln_bench::{write_csv, ExpArgs};
use dln_org::{NavConfig, SearchConfig};
use dln_study::{run_study, AgentConfig, StudyConfig};
use dln_synth::SocrataConfig;

fn main() {
    let args = ExpArgs::parse(0.15);
    let scale = args.effective_scale();
    let cfg = SocrataConfig {
        seed: args.seed,
        store_values: true, // search needs raw values
        ..SocrataConfig::paper().scaled(scale)
    };
    eprintln!(
        "generating Socrata-like lake: {} tables / {} tags (scale {scale})",
        cfg.n_tables, cfg.n_tags
    );
    let socrata = cfg.generate();
    let ((lake2, values2), (lake3, values3)) = socrata.split_disjoint(args.seed ^ 0x2357);
    eprintln!(
        "sub-lakes: Socrata-2-like {} tables / {} tags; Socrata-3-like {} tables / {} tags (tag-disjoint)",
        lake2.n_tables(),
        lake2.n_tags(),
        lake3.n_tables(),
        lake3.n_tags()
    );
    let study_cfg = StudyConfig {
        n_participants: 12,
        n_dims: 5,
        search: SearchConfig {
            nav: NavConfig { gamma: args.gamma },
            rep_fraction: 0.1,
            seed: args.seed,
            ..Default::default()
        },
        agent: AgentConfig {
            budget: 200,
            judge_threshold: 0.73,
            seed: args.seed,
            ..Default::default()
        },
        relevance_threshold: 0.75,
        seed: args.seed,
        ..Default::default()
    };
    eprintln!("running 12 simulated participants (latin-square blocks) ...");
    let report = run_study(
        &lake2,
        &values2,
        &lake3,
        &values3,
        &socrata.model,
        &study_cfg,
    )
    .expect("study");
    println!("\n{report}");

    let cols: Vec<(&str, &[f64])> = vec![
        ("nav_found", report.nav.n_found.as_slice()),
        ("search_found", report.search.n_found.as_slice()),
        ("nav_disjointness", report.nav.disjointness.as_slice()),
        ("search_disjointness", report.search.disjointness.as_slice()),
    ];
    let path = write_csv(&args.out, "user_study.csv", &cols).expect("csv written");
    println!("\nraw samples written to {}", path.display());
}
