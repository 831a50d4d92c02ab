//! Inverted index over a data lake: one document per table.

use std::collections::HashMap;

use dln_lake::{DataLake, TableId, ValueStore};

use crate::bm25::{idf, term_score};
use crate::expansion::{ExpansionConfig, Expansions};

/// One search result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SearchHit {
    /// The matching table.
    pub table: TableId,
    /// BM25 score (query-expansion terms contribute with reduced weight).
    pub score: f32,
}

/// A posting: document and term frequency.
#[derive(Clone, Copy, Debug)]
struct Posting {
    doc: u32,
    tf: u32,
}

/// A BM25 keyword-search engine over the tables of a data lake.
///
/// Indexed content per table: table name, tag labels, attribute names and
/// attribute values (read from the lake's [`ValueStore`]; an attribute with
/// an empty entry contributes its name only).
pub struct KeywordSearch {
    postings: HashMap<String, Vec<Posting>>,
    doc_len: Vec<u32>,
    avg_doc_len: f32,
    expansions: Option<Expansions>,
    /// Retained embedding model, so out-of-index (but embeddable) query
    /// terms can still be expanded — as GloVe allowed in the paper's
    /// engine.
    model: Option<std::sync::Arc<dyn dln_embed::EmbeddingModel>>,
}

impl KeywordSearch {
    /// Index `lake`, whose attributes' values are `values`, without query
    /// expansion.
    ///
    /// # Panics
    /// When `values` does not hold one entry per attribute of `lake`.
    pub fn build(lake: &DataLake, values: &ValueStore) -> KeywordSearch {
        Self::build_inner(lake, values)
    }

    /// Index `lake` and its `values` with embedding-based query expansion
    /// enabled.
    ///
    /// # Panics
    /// As [`build`](Self::build).
    pub fn build_with_expansion<M: dln_embed::EmbeddingModel + 'static>(
        lake: &DataLake,
        values: &ValueStore,
        model: M,
        cfg: ExpansionConfig,
    ) -> KeywordSearch {
        let mut engine = Self::build_inner(lake, values);
        let terms: Vec<&str> = engine.postings.keys().map(|s| s.as_str()).collect();
        engine.expansions = Some(Expansions::precompute(&terms, &model, cfg));
        engine.model = Some(std::sync::Arc::new(model));
        engine
    }

    fn build_inner(lake: &DataLake, values: &ValueStore) -> KeywordSearch {
        assert_eq!(
            values.len(),
            lake.n_attrs(),
            "the value store must hold one entry per attribute of the lake"
        );
        let n_docs = lake.n_tables();
        let mut postings: HashMap<String, Vec<Posting>> = HashMap::new();
        let mut doc_len = vec![0u32; n_docs];
        let mut freqs: HashMap<String, u32> = HashMap::new();
        for tid in lake.table_ids() {
            freqs.clear();
            let table = lake.table(tid);
            let push_text = |text: &str, freqs: &mut HashMap<String, u32>| {
                for tok in dln_embed::tokenize(text) {
                    *freqs.entry(tok).or_insert(0) += 1;
                }
            };
            push_text(&table.name, &mut freqs);
            for &tg in &table.tags {
                push_text(&lake.tag(tg).label, &mut freqs);
            }
            for &aid in &table.attrs {
                push_text(&lake.attr(aid).name, &mut freqs);
                for v in values.get(aid).iter() {
                    push_text(v, &mut freqs);
                }
            }
            let mut len = 0u32;
            for (term, tf) in freqs.drain() {
                len += tf;
                postings
                    .entry(term)
                    .or_default()
                    .push(Posting { doc: tid.0, tf });
            }
            doc_len[tid.index()] = len;
        }
        let total: u64 = doc_len.iter().map(|&l| l as u64).sum();
        let avg_doc_len = if n_docs == 0 {
            0.0
        } else {
            total as f32 / n_docs as f32
        };
        KeywordSearch {
            postings,
            doc_len,
            avg_doc_len,
            expansions: None,
            model: None,
        }
    }

    /// Number of indexed documents (tables).
    pub fn n_docs(&self) -> usize {
        self.doc_len.len()
    }

    /// Search with expansion on (if available). See
    /// [`search_with_options`](Self::search_with_options).
    pub fn search(&self, query: &str, top_k: usize) -> Vec<SearchHit> {
        self.search_with_options(query, top_k, true)
    }

    /// BM25 search. Query terms are tokenized like documents; when `expand`
    /// is true and the engine was built with expansion, each embeddable
    /// query term also matches its nearest indexed terms with
    /// similarity-scaled weight ("users can optionally disable query
    /// expansion", §4.4).
    pub fn search_with_options(&self, query: &str, top_k: usize, expand: bool) -> Vec<SearchHit> {
        let mut terms: Vec<(String, f32)> = dln_embed::tokenize(query)
            .into_iter()
            .map(|t| (t, 1.0))
            .collect();
        if expand {
            if let Some(exp) = &self.expansions {
                let original: Vec<String> = terms.iter().map(|(t, _)| t.clone()).collect();
                for t in &original {
                    // Indexed terms expand from their stored vector;
                    // out-of-index terms go through the retained model.
                    let expanded = if self.postings.contains_key(t) {
                        exp.expand(t)
                    } else if let Some(v) = self.model.as_ref().and_then(|m| m.embed(t)) {
                        exp.expand_vector(&dln_embed::normalized(v))
                    } else {
                        Vec::new()
                    };
                    for (term, sim) in expanded {
                        if !terms.iter().any(|(existing, _)| existing == term) {
                            terms.push((term.clone(), sim));
                        }
                    }
                }
            }
        }
        let mut scores: HashMap<u32, f32> = HashMap::new();
        for (term, weight) in &terms {
            let Some(posts) = self.postings.get(term) else {
                continue;
            };
            let w_idf = idf(self.n_docs(), posts.len()) * weight;
            for p in posts {
                let s = w_idf
                    * term_score(
                        p.tf as f32,
                        self.doc_len[p.doc as usize] as f32,
                        self.avg_doc_len,
                    );
                *scores.entry(p.doc).or_insert(0.0) += s;
            }
        }
        let mut hits: Vec<SearchHit> = scores
            .into_iter()
            .map(|(doc, score)| SearchHit {
                table: TableId(doc),
                score,
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.table.0.cmp(&b.table.0))
        });
        hits.truncate(top_k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dln_embed::{EmbeddingModel, SyntheticEmbedding, VocabularyConfig};
    use dln_lake::LakeBuilder;

    fn model() -> SyntheticEmbedding {
        SyntheticEmbedding::with_vocab_config(VocabularyConfig {
            n_topics: 4,
            words_per_topic: 12,
            dim: 16,
            sigma: 0.3,
            seed: 21,
            n_supertopics: 0,
            supertopic_sigma: 0.7,
        })
    }

    fn lake_with(model: &SyntheticEmbedding) -> (DataLake, ValueStore) {
        let v = model.vocab();
        let mut b = LakeBuilder::new(model.dim());
        let mut values = ValueStore::new();
        let mut add = |b: &mut LakeBuilder, t, name: &str, words: &[u32]| {
            let words = words.iter().map(|&i| v.word(dln_embed::TokenId(i)));
            b.add_attribute(t, name, words.clone(), model);
            values.push(words.collect());
        };
        let t0 = b.begin_table("fish inspections");
        b.add_tag(t0, "food safety");
        add(&mut b, t0, "species", &[0, 1, 2]);
        let t1 = b.begin_table("city budget");
        b.add_tag(t1, "finance");
        add(&mut b, t1, "department", &[12, 13]);
        (b.build(), values)
    }

    #[test]
    fn finds_tables_by_value() {
        let m = model();
        let (lake, values) = lake_with(&m);
        let engine = KeywordSearch::build(&lake, &values);
        let w0 = m.vocab().word(dln_embed::TokenId(0));
        let hits = engine.search(w0, 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].table, TableId(0));
    }

    #[test]
    fn finds_tables_by_metadata() {
        let m = model();
        let (lake, values) = lake_with(&m);
        let engine = KeywordSearch::build(&lake, &values);
        assert_eq!(engine.search("finance", 10)[0].table, TableId(1));
        assert_eq!(engine.search("safety", 10)[0].table, TableId(0));
        assert_eq!(engine.search("department", 10)[0].table, TableId(1));
        assert_eq!(engine.search("inspections", 10)[0].table, TableId(0));
    }

    #[test]
    fn unknown_terms_yield_nothing() {
        let m = model();
        let (lake, values) = lake_with(&m);
        let engine = KeywordSearch::build(&lake, &values);
        assert!(engine.search("xylophone", 10).is_empty());
        assert!(engine.search("", 10).is_empty());
    }

    #[test]
    fn multi_term_queries_accumulate() {
        let m = model();
        let (lake, values) = lake_with(&m);
        let engine = KeywordSearch::build(&lake, &values);
        let w0 = m.vocab().word(dln_embed::TokenId(0));
        let q = format!("{w0} species");
        let hits = engine.search(&q, 10);
        let single = engine.search(w0, 10);
        assert!(
            hits[0].score > single[0].score,
            "two matching terms score higher"
        );
    }

    #[test]
    fn top_k_truncates_in_score_order() {
        let m = model();
        let (lake, values) = lake_with(&m);
        let engine = KeywordSearch::build(&lake, &values);
        // "fish" appears in a table name; the word tokens differ per table,
        // so search for a term hitting both docs: attribute names don't
        // overlap — use two terms.
        let hits = engine.search("species department", 1);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn expansion_recalls_similar_value_terms() {
        let m = model();
        let (lake, values) = lake_with(&m);
        let engine = KeywordSearch::build_with_expansion(
            &lake,
            &values,
            m.clone(),
            ExpansionConfig::default(),
        );
        assert!(engine.expansions.is_some());
        // Word 3 is in the same topic as indexed words 0..3 but is NOT in
        // the lake; expansion should still retrieve the fish table.
        let w3 = m.vocab().word(dln_embed::TokenId(3));
        assert!(m.embed(w3).is_some());
        let with = engine.search_with_options(w3, 10, true);
        let without = engine.search_with_options(w3, 10, false);
        assert!(without.is_empty(), "term absent from the index");
        assert!(!with.is_empty(), "expansion finds topical neighbours");
        assert_eq!(with[0].table, TableId(0));
    }

    #[test]
    fn expansion_does_not_cross_topics() {
        let m = model();
        let (lake, values) = lake_with(&m);
        let engine = KeywordSearch::build_with_expansion(
            &lake,
            &values,
            m.clone(),
            ExpansionConfig::default(),
        );
        let w3 = m.vocab().word(dln_embed::TokenId(3));
        let hits = engine.search(w3, 10);
        assert!(
            hits.iter().all(|h| h.table == TableId(0)),
            "expansion of a topic-0 word must not hit the finance table"
        );
    }

    #[test]
    fn empty_lake_is_searchable() {
        let lake = LakeBuilder::new(8).build();
        let engine = KeywordSearch::build(&lake, &ValueStore::new());
        assert_eq!(engine.n_docs(), 0);
        assert!(engine.search("anything", 5).is_empty());
    }
}
