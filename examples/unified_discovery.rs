//! Unified discovery — the paper's concluding future-work item: keyword
//! search and navigation as interchangeable modalities. Search for a
//! table, pivot into the organization where it lives, browse its
//! neighbourhood, then search *within* that neighbourhood.
//!
//! Run with:
//! ```sh
//! cargo run --release --example unified_discovery
//! ```

use datalake_nav::org::MultiDimConfig;
use datalake_nav::prelude::*;
use datalake_nav::search::ExpansionConfig;
use datalake_nav::study::{ServedDim, UnifiedSession};

fn main() {
    let socrata = SocrataConfig::small().generate();
    let lake = &socrata.lake;
    println!("{}", lake.stats());

    let engine = KeywordSearch::build_with_expansion(
        lake,
        &socrata.values,
        socrata.model.clone(),
        ExpansionConfig::default(),
    );
    let md = MultiDimOrganization::build(
        lake,
        &MultiDimConfig {
            n_dims: 2,
            search: SearchConfig {
                max_iters: 200,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let dims: Vec<ServedDim> = md.dims.into_iter().map(ServedDim::serve).collect();
    let mut session = UnifiedSession::new(lake, &engine, &dims);

    // 1. Search: a value the user remembers seeing somewhere.
    let probe_value = socrata
        .values
        .iter()
        .find_map(|v| v.first())
        .expect("values stored");
    println!("\n[search] query = {probe_value:?}");
    let hits = session.search(probe_value, 5);
    for h in &hits {
        println!("  {:>6.2}  {}", h.score, lake.table(h.table).name);
    }

    // 2. Pivot: jump into the organization at the top hit.
    let top = hits[0].table;
    let state = session.pivot_to_table(top).expect("table is organized");
    println!(
        "\n[pivot] jumped to state {:?} ({})",
        state,
        session.position_label().unwrap()
    );
    println!("  shelf:");
    for (t, n) in session.tables_here().into_iter().take(6) {
        println!("    {} ({} matching attrs)", lake.table(t).name, n);
    }

    // 3. Browse: widen the view one level.
    session.step(StepAction::Backtrack).expect("cursor");
    println!(
        "\n[browse] backtracked to {}",
        session.position_label().unwrap()
    );
    println!(
        "  the wider shelf has {} tables",
        session.tables_here().len()
    );

    // 4. Scoped search: the same query, restricted to this neighbourhood.
    let scoped = session.search_here(probe_value, 5);
    println!("\n[search-here] {} scoped hits:", scoped.len());
    for h in &scoped {
        println!("  {:>6.2}  {}", h.score, lake.table(h.table).name);
    }

    // 5. And the reverse direction: free-text pivot into the organization.
    if let Some(s2) = session.pivot_to_query(probe_value, &socrata.model) {
        println!(
            "\n[pivot-query] free-text pivot landed at {:?} ({})",
            s2,
            session.position_label().unwrap()
        );
    }
}
