//! Micro-benchmarks for the navigation-model evaluation kernels: the
//! reach-probability DP, incremental delta evaluation (cached parallel path
//! vs the seed baseline), exact discovery probabilities, success-curve
//! computation, and generator throughput.
//!
//! Plain `main()` harness over [`dln_bench::timing`]; run with
//! `cargo bench --bench evaluation`. The deeper threaded sweep that emits
//! `BENCH_eval.json` lives in the `bench_eval` binary.

use dln_bench::timing::bench_n;
use dln_org::{
    clustering_org, eval::discovery_probs, ops, success, Evaluator, NavConfig, OrgContext,
    Representatives,
};
use dln_synth::{SocrataConfig, TagCloudConfig};

fn bench_setup() -> (dln_lake::DataLake, OrgContext) {
    let bench = TagCloudConfig {
        n_tags: 80,
        n_attrs_target: 500,
        store_values: false,
        ..TagCloudConfig::small()
    }
    .generate();
    let ctx = OrgContext::full(&bench.lake);
    (bench.lake, ctx)
}

fn main() {
    let (lake, ctx) = bench_setup();
    let org = clustering_org(&ctx);

    for (name, fraction) in [("exact", 1.0f64), ("reps10", 0.1)] {
        let reps = if fraction >= 1.0 {
            Representatives::exact(&ctx)
        } else {
            Representatives::kmedoids(&ctx, fraction, 7)
        };
        bench_n(&format!("evaluator/full/{name}"), 10, || {
            Evaluator::new(&ctx, &org, NavConfig::default(), &reps)
        });
    }

    // Delta + rollback restores both structures exactly, so the organization
    // and evaluator are reused across iterations.
    let reps = Representatives::exact(&ctx);
    let mut delta_org = clustering_org(&ctx);
    let mut ev = Evaluator::new(&ctx, &delta_org, NavConfig::default(), &reps);
    let mut reach = Vec::new();
    bench_n("evaluator/incremental_delta/cached", 100, || {
        ev.reachability_into(&mut reach);
        let s = delta_org.tag_state(3);
        let out = ops::try_add_parent(&mut delta_org, &ctx, s, &reach).expect("applicable");
        let (undo, stats) = ev.apply_delta(&ctx, &delta_org, &out.dirty_parents);
        ev.rollback(undo);
        ops::undo(&mut delta_org, &ctx, out);
        stats
    });
    bench_n("evaluator/incremental_delta/seed_baseline", 100, || {
        ev.reachability_into(&mut reach);
        let s = delta_org.tag_state(3);
        let out = ops::try_add_parent(&mut delta_org, &ctx, s, &reach).expect("applicable");
        let (undo, stats) = ev.apply_delta_uncached(&ctx, &delta_org, &out.dirty_parents);
        ev.rollback(undo);
        ops::undo(&mut delta_org, &ctx, out);
        stats
    });

    for threads in [1usize, 4] {
        bench_n(&format!("discovery_probs/500attrs/t{threads}"), 3, || {
            rayon::with_num_threads(threads, || {
                discovery_probs(&ctx, &org, NavConfig::default())
            })
        });
    }

    let disc = {
        let built = dln_org::builder::BuiltOrganization {
            ctx: ctx.clone(),
            organization: org.clone(),
            nav: NavConfig::default(),
            search_stats: None,
        };
        built.attr_discovery_global(&lake)
    };
    bench_n("success_curve/500attrs/theta0.9", 5, || {
        rayon::with_num_threads(4, || success::success_curve(&lake, &disc, 0.9))
    });

    bench_n("generators/tagcloud/small", 3, || {
        TagCloudConfig::small().generate()
    });
    bench_n("generators/socrata/small", 3, || {
        SocrataConfig::small().generate()
    });
}
