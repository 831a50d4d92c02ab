//! Organize a Socrata-like open-data lake into a multi-dimensional
//! navigation structure and simulate a discovery session — the paper's
//! motivating scenario: "a user with only a vague notion of what data
//! exists in a lake".
//!
//! Run with:
//! ```sh
//! cargo run --release --example open_data_portal
//! ```

use datalake_nav::org::MultiDimConfig;
use datalake_nav::prelude::*;
use datalake_nav::study::{default_scenario, ServedDim};

fn main() {
    // A skewed, multi-tagged, partially-embedded open-data lake (see
    // dln-synth for how it matches the published Socrata statistics).
    let socrata = SocrataConfig::small().generate();
    let lake = &socrata.lake;
    println!("{}", lake.stats());

    // Partition tags into three dimensions and optimize each in parallel.
    let md = MultiDimOrganization::build(
        lake,
        &MultiDimConfig {
            n_dims: 3,
            search: SearchConfig {
                max_iters: 300,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    println!("\nbuilt a {}-dimensional organization:", md.n_dims());
    for (i, stats) in md.dim_stats().iter().enumerate() {
        println!(
            "  dimension {}: {} tags, {} attributes, {} tables",
            i + 1,
            stats.n_tags,
            stats.n_attrs,
            stats.n_tables
        );
    }
    println!(
        "effectiveness (Eq 8 across dimensions): {:.4}",
        md.effectiveness(lake)
    );

    // A vague information need: the lake's most popular topic area.
    let scenario = default_scenario(lake, "overview scenario", 3, 0.6).expect("lake has tags");
    println!(
        "\nscenario '{}': {} tables are actually relevant",
        scenario.label,
        scenario.relevant.len()
    );

    // Serve each dimension, then run a greedy navigation session in the
    // best-matching one (the one whose root topic is closest to the
    // scenario).
    let dims: Vec<ServedDim> = md.dims.into_iter().map(ServedDim::serve).collect();
    let svc = &dims
        .iter()
        .max_by(|a, b| {
            let sa = datalake_nav::embed::dot(&a.root_topic, &scenario.unit_topic);
            let sb = datalake_nav::embed::dot(&b.root_topic, &scenario.unit_topic);
            sa.partial_cmp(&sb).unwrap()
        })
        .expect("at least one dimension")
        .svc;
    let sid = svc.open_session().expect("session");
    let mut req = StepRequest {
        query: Some(scenario.unit_topic.clone()),
        list_tables: true,
        ..StepRequest::action(StepAction::Stay)
    };
    let mut view = svc.step(sid, &req).expect("step");
    println!("\ngreedy navigation trace (best-matching dimension):");
    for step in 1..=24 {
        let Some(best) = view
            .children
            .iter()
            .max_by(|a, b| a.prob.partial_cmp(&b.prob).unwrap())
        else {
            break;
        };
        println!(
            "  step {step}: -> {} (p = {:.2})",
            best.label,
            best.prob.unwrap_or(0.0)
        );
        req.action = StepAction::Descend(best.state);
        view = svc.step(sid, &req).expect("step");
        if view.at_tag_state.is_some() {
            break;
        }
    }
    println!("\ntables under the reached state:");
    let mut hits = 0;
    for (tid, _) in view.tables.into_iter().take(8) {
        let mark = if scenario.relevant.contains(&tid) {
            hits += 1;
            "RELEVANT"
        } else {
            "        "
        };
        println!("  [{mark}] {}", lake.table(tid).name);
    }
    println!("({hits} of the listed tables are scenario-relevant)");
}
