//! Quickstart: generate a small benchmark lake, build three organizations
//! (flat baseline, agglomerative clustering, local-search optimized), and
//! compare how likely a navigating user is to find each table.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use datalake_nav::prelude::*;

fn main() {
    // 1. A small TagCloud-style benchmark lake: every attribute carries one
    //    ground-truth tag and its values cluster around that tag's topic.
    let bench = TagCloudConfig::small().generate();
    let lake = &bench.lake;
    println!(
        "lake: {} tables, {} attributes, {} tags",
        lake.n_tables(),
        lake.n_attrs(),
        lake.n_tags()
    );

    // 2. Build organizations.
    let builder = OrganizerBuilder::new(lake)
        .gamma(20.0)
        .seed(7)
        .max_iters(400);
    let flat = builder.build_flat();
    let clustering = builder.build_clustering();
    let optimized = builder.build_optimized();

    // 3. Organization effectiveness (Eq 6): the expected probability that a
    //    user who has a table "in mind" discovers it by navigation.
    println!("\norganization effectiveness (expected table-discovery probability):");
    println!("  flat tag portal : {:.4}", flat.effectiveness());
    println!("  clustering      : {:.4}", clustering.effectiveness());
    println!("  optimized       : {:.4}", optimized.effectiveness());
    if let Some(stats) = &optimized.search_stats {
        println!(
            "  (local search: {} proposals, {} accepted, {:.2?})",
            stats.iterations, stats.accepted, stats.duration
        );
    }

    // 4. The paper's success-probability measure (θ = 0.9): navigation
    //    succeeds if it finds the table's attribute or a near-duplicate.
    let curve = optimized.success_curve(lake, 0.9);
    println!(
        "\nsuccess probability over tables: mean {:.3}, hardest table {:.3}, easiest {:.3}",
        curve.mean,
        curve.per_table.first().map(|(_, v)| *v).unwrap_or(0.0),
        curve.per_table.last().map(|(_, v)| *v).unwrap_or(0.0),
    );

    // 5. Navigate: serve the optimized organization and walk toward the
    //    topic of the first attribute, one step at a time.
    let query = lake.attr(AttrId(0)).unit_topic.clone();
    let svc = NavService::new(
        optimized.ctx,
        optimized.organization,
        optimized.nav,
        ServeConfig::default(),
    );
    let sid = svc.open_session().expect("session");
    let mut req = StepRequest {
        query: Some(query),
        list_tables: true,
        ..StepRequest::action(StepAction::Stay)
    };
    println!(
        "\nnavigating toward the topic of attribute `{}`:",
        lake.attr(AttrId(0)).name
    );
    let mut view = svc.step(sid, &req).expect("step");
    while let Some(best) = view
        .children
        .iter()
        .max_by(|a, b| a.prob.partial_cmp(&b.prob).unwrap())
    {
        println!("  -> {} (p = {:.2})", best.label, best.prob.unwrap_or(0.0));
        req.action = StepAction::Descend(best.state);
        view = svc.step(sid, &req).expect("step");
    }
    println!("  tables at this state:");
    for (tid, n_attrs) in view.tables.iter().take(5) {
        println!(
            "    {} ({} matching attributes)",
            lake.table(*tid).name,
            n_attrs
        );
    }
}
