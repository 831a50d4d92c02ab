//! Navigation vs keyword search, head to head — a miniature of the paper's
//! §4.4 user study.
//!
//! Two simulated participants with the same information need explore the
//! same lake: one walks the organization, the other issues keyword queries
//! against a BM25 engine with embedding query expansion. The example
//! prints both result sets and their disjointness — the paper's
//! observation was that the two modalities surface largely different
//! tables (≈5% overlap), which is exactly why navigation complements
//! search.
//!
//! Run with:
//! ```sh
//! cargo run --release --example navigation_vs_search
//! ```

use datalake_nav::prelude::*;
use datalake_nav::search::ExpansionConfig;
use datalake_nav::study::{
    default_scenario, disjointness, AgentConfig, SearchAgent, ServedAgent, ServedDim,
};

fn main() {
    let socrata = SocrataConfig::small().generate();
    let lake = &socrata.lake;
    println!("{}", lake.stats());

    // The shared information need.
    let scenario = default_scenario(lake, "overview need", 3, 0.6).expect("lake has tags");
    println!(
        "\nscenario: {} relevant tables exist in the lake",
        scenario.relevant.len()
    );

    // Interface 1: a 2-dimensional optimized organization, each dimension
    // on its own navigation service.
    let md = MultiDimOrganization::build(
        lake,
        &datalake_nav::org::MultiDimConfig {
            n_dims: 2,
            search: SearchConfig {
                max_iters: 300,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    // Interface 2: BM25 keyword search with query expansion.
    let engine = KeywordSearch::build_with_expansion(
        lake,
        &socrata.values,
        socrata.model.clone(),
        ExpansionConfig::default(),
    );

    let cfg = AgentConfig {
        budget: 150,
        seed: 7,
        ..Default::default()
    };
    let dims: Vec<ServedDim> = md.dims.into_iter().map(ServedDim::serve).collect();
    let nav_found = ServedAgent::run(
        &dims,
        lake,
        &scenario,
        &cfg,
        &RetryPolicy::default(),
        |_| {},
    )
    .found;
    let search_found = SearchAgent::run(&engine, &socrata.model, lake, &scenario, &cfg);

    let verified = |set: &std::collections::BTreeSet<TableId>| {
        set.iter()
            .filter(|t| scenario.relevant.contains(t))
            .copied()
            .collect::<std::collections::BTreeSet<_>>()
    };
    let nav_ok = verified(&nav_found);
    let search_ok = verified(&search_found);

    println!("\nnavigation found {} relevant tables:", nav_ok.len());
    for t in nav_ok.iter().take(8) {
        println!("  {}", lake.table(*t).name);
    }
    println!(
        "\nkeyword search found {} relevant tables:",
        search_ok.len()
    );
    for t in search_ok.iter().take(8) {
        println!("  {}", lake.table(*t).name);
    }
    println!(
        "\ndisjointness of the two result sets: {:.3} (1.0 = nothing in common)",
        disjointness(&nav_ok, &search_ok)
    );
    let both: Vec<_> = nav_ok.intersection(&search_ok).collect();
    println!("tables found by BOTH modalities: {}", both.len());
}
