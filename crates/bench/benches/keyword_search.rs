//! Micro-benchmarks for the keyword-search substrate: index construction,
//! plain BM25 queries, and expansion-enabled queries.
//!
//! Plain `main()` harness over [`dln_bench::timing`]; run with
//! `cargo bench --bench keyword_search`.

use dln_bench::timing::bench_n;
use dln_search::{ExpansionConfig, KeywordSearch};
use dln_synth::SocrataConfig;

fn setup() -> (
    dln_lake::DataLake,
    dln_lake::ValueStore,
    dln_embed::SyntheticEmbedding,
    Vec<String>,
) {
    let s = SocrataConfig::small().generate();
    // Query terms: a few vocabulary words.
    let queries: Vec<String> = (0..8)
        .map(|i| s.model.vocab().word(dln_embed::TokenId(i * 37)).to_string())
        .collect();
    (s.lake, s.values, s.model, queries)
}

fn main() {
    let (lake, values, model, queries) = setup();

    bench_n("keyword_index/build/plain", 5, || {
        KeywordSearch::build(&lake, &values)
    });
    bench_n("keyword_index/build/with_expansion", 5, || {
        KeywordSearch::build_with_expansion(
            &lake,
            &values,
            model.clone(),
            ExpansionConfig::default(),
        )
    });

    let plain = KeywordSearch::build(&lake, &values);
    let expanded = KeywordSearch::build_with_expansion(
        &lake,
        &values,
        model.clone(),
        ExpansionConfig::default(),
    );
    bench_n("keyword_query/top10/bm25", 20, || {
        queries
            .iter()
            .map(|q| plain.search(q, 10).len())
            .sum::<usize>()
    });
    bench_n("keyword_query/top10/bm25+expansion", 20, || {
        queries
            .iter()
            .map(|q| expanded.search(q, 10).len())
            .sum::<usize>()
    });
    bench_n("keyword_query/top10/expansion_disabled", 20, || {
        queries
            .iter()
            .map(|q| expanded.search_with_options(q, 10, false).len())
            .sum::<usize>()
    });
}
