//! The TagCloud benchmark (paper §4.1).
//!
//! TagCloud is a synthetic lake "where we know exactly the most relevant tag
//! for an attribute". The paper's construction, reproduced here:
//!
//! 1. pick tag words that are not close in cosine space (we take one word
//!    per synthetic topic cluster — the word nearest its topic centre —
//!    which by construction gives near-orthogonal tag words);
//! 2. for each attribute with `k` values (`k` uniform in
//!    `[values_min, values_max]`), the domain is the `k` words most similar
//!    to the tag word, so attribute topic vectors sit tightly around their
//!    tag ("this artificially guarantees that ... the topic vector of
//!    attributes are close to their tags");
//! 3. each attribute is associated with exactly one tag;
//! 4. attributes per table are sampled from `[1, max_attrs_per_table]`
//!    following a Zipfian distribution, emulating real-lake metadata skew.
//!
//! The paper-scale configuration targets 365 tags, 2,651 attributes and
//! ≈369 tables. [`TagCloudBench::enrich`] implements the §4.3.1 enrichment:
//! every attribute additionally gets the closest tag other than its own,
//! which lifts the discoverability of single-attribute tables
//! (the `enriched 2-dim` series of Figure 2a).

use dln_embed::{
    dot, SyntheticEmbedding, SyntheticEmbeddingConfig, TokenId, TopicAccumulator, VocabularyConfig,
};
use dln_lake::{DataLake, LakeBuilder, TagId, ValueStore, Values};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::zipf::Zipf;

/// Configuration of the TagCloud generator.
#[derive(Clone, Debug)]
pub struct TagCloudConfig {
    /// Number of tags (and synthetic topics). Paper: 365.
    pub n_tags: usize,
    /// Generation stops once this many attributes exist. Paper: 2,651.
    pub n_attrs_target: usize,
    /// Upper bound of the Zipfian attributes-per-table draw. Paper: 50.
    pub max_attrs_per_table: usize,
    /// Zipf exponent for attributes per table. 1.0 gives a mean of ≈7.2
    /// attributes per table for max=50, matching the paper's 2,651 / 369.
    pub attrs_per_table_zipf_s: f64,
    /// Minimum values per attribute. Paper: 10.
    pub values_min: usize,
    /// Maximum values per attribute. Paper: 1,000.
    pub values_max: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Intra-topic spread of the synthetic vocabulary.
    pub sigma: f32,
    /// Supertopic count of the vocabulary (correlated topic centres; see
    /// `dln_embed::VocabularyConfig::n_supertopics`). Real tag words are
    /// correlated, which is what makes navigation non-trivial.
    pub n_supertopics: usize,
    /// Spread of topic centres around their supertopic centre.
    pub supertopic_sigma: f32,
    /// Extra words per topic beyond `values_max`, so that top-k neighbour
    /// selection has slack.
    pub vocab_slack: usize,
    /// Fraction of attribute values replaced by uniformly random vocabulary
    /// words. Real embedding spaces are noisy — the nearest neighbours of a
    /// fastText word include polysemous and junk terms — so attribute topic
    /// vectors are *pulled toward* their tag rather than sitting exactly on
    /// it. Without this noise the synthetic benchmark is unrealistically
    /// clean: the agglomerative initialization is already locally optimal
    /// and the local search has nothing to do.
    pub value_noise: f64,
    /// RNG seed; the benchmark is a pure function of the config.
    pub seed: u64,
    /// Whether the benchmark keeps raw values in its [`ValueStore`] (needed
    /// only by keyword search / the user study; organization construction
    /// is topic-vector only). Without them every attribute's entry is
    /// empty.
    pub store_values: bool,
}

impl TagCloudConfig {
    /// The paper-scale benchmark: 365 tags, ≈2,651 attributes, ≈369 tables,
    /// 10–1,000 values per attribute.
    pub fn paper() -> TagCloudConfig {
        TagCloudConfig {
            n_tags: 365,
            n_attrs_target: 2_651,
            max_attrs_per_table: 50,
            // Mean ≈ 7.3 attrs/table ⇒ ≈363 tables for 2,651 attributes,
            // matching the paper's 369.
            attrs_per_table_zipf_s: 1.3,
            values_min: 10,
            values_max: 1_000,
            dim: 50,
            sigma: 0.35,
            n_supertopics: 24,
            supertopic_sigma: 0.8,
            vocab_slack: 50,
            value_noise: 0.35,
            seed: 0x7A6C_100D,
            store_values: false,
        }
    }

    /// A reduced-scale benchmark for unit tests and examples: 30 tags,
    /// ≈200 attributes, values 5–40.
    pub fn small() -> TagCloudConfig {
        TagCloudConfig {
            n_tags: 30,
            n_attrs_target: 200,
            max_attrs_per_table: 20,
            attrs_per_table_zipf_s: 1.0,
            values_min: 5,
            values_max: 40,
            dim: 32,
            sigma: 0.35,
            n_supertopics: 6,
            supertopic_sigma: 0.8,
            vocab_slack: 10,
            value_noise: 0.35,
            seed: 0x7A6C_100D,
            store_values: true,
        }
    }

    /// Scale the tag / attribute counts by `f` (values and table shape are
    /// unchanged). Useful for scalability sweeps.
    pub fn scaled(mut self, f: f64) -> TagCloudConfig {
        assert!(f > 0.0, "scale factor must be positive");
        self.n_tags = ((self.n_tags as f64 * f).round() as usize).max(2);
        self.n_attrs_target = ((self.n_attrs_target as f64 * f).round() as usize).max(4);
        self
    }

    /// Generate the benchmark.
    pub fn generate(&self) -> TagCloudBench {
        assert!(self.n_tags >= 2, "need at least two tags");
        assert!(
            self.values_min >= 1 && self.values_min <= self.values_max,
            "invalid values range"
        );
        let words_per_topic = self.values_max + self.vocab_slack;
        let model = SyntheticEmbedding::new(&SyntheticEmbeddingConfig {
            vocab: VocabularyConfig {
                n_topics: self.n_tags,
                words_per_topic,
                dim: self.dim,
                sigma: self.sigma,
                n_supertopics: self.n_supertopics,
                supertopic_sigma: self.supertopic_sigma,
                seed: self.seed ^ 0x51CE_EDED,
            },
            // TagCloud is fully covered on purpose: the paper's benchmark is
            // "much cleaner than real data portals".
            coverage: 1.0,
            coverage_seed: 0,
        });
        let vocab = model.vocab();
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Tag word per topic: the word nearest its topic centre. Per-topic
        // words are also ranked by similarity to the tag word once, so each
        // attribute's top-k domain is a prefix slice.
        let mut tag_words: Vec<TokenId> = Vec::with_capacity(self.n_tags);
        let mut ranked: Vec<Vec<TokenId>> = Vec::with_capacity(self.n_tags);
        for t in 0..self.n_tags {
            let base = t * words_per_topic;
            let ids: Vec<TokenId> = (base..base + words_per_topic)
                .map(|i| TokenId(i as u32))
                .collect();
            let centre = vocab.centre(t);
            // First-element fold replicating `Iterator::max_by` (keep the
            // later element on ties) without the empty-iterator Option —
            // `ids` always holds `words_per_topic ≥ 1` entries.
            let tag = ids[1..].iter().fold(ids[0], |best, &w| {
                match dot(vocab.vector(best), centre)
                    .partial_cmp(&dot(vocab.vector(w), centre))
                    .unwrap_or(std::cmp::Ordering::Equal)
                {
                    std::cmp::Ordering::Greater => best,
                    _ => w,
                }
            });
            let tv = vocab.vector(tag);
            let mut by_sim = ids.clone();
            by_sim.sort_by(|a, b| {
                dot(vocab.vector(*b), tv)
                    .partial_cmp(&dot(vocab.vector(*a), tv))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            tag_words.push(tag);
            ranked.push(by_sim);
        }

        let attrs_zipf = Zipf::new(self.max_attrs_per_table, self.attrs_per_table_zipf_s);
        let mut builder = LakeBuilder::new(self.dim);
        let mut store = ValueStore::new();
        let mut true_tag_word: Vec<TokenId> = Vec::new();
        let mut n_attrs = 0usize;
        let mut table_idx = 0usize;
        while n_attrs < self.n_attrs_target {
            let table = builder.begin_table(&format!("table{table_idx:05}"));
            table_idx += 1;
            let n = attrs_zipf
                .sample(&mut rng)
                .min(self.n_attrs_target - n_attrs);
            for a in 0..n {
                let tag_idx = rng.random_range(0..self.n_tags);
                let k = rng.random_range(self.values_min..=self.values_max);
                let chosen = &ranked[tag_idx][..k.min(words_per_topic)];
                let mut topic = TopicAccumulator::new(self.dim);
                let mut values = Values::new();
                for &w in chosen {
                    // Embedding-space noise: some of the "k most similar
                    // words" are actually junk neighbours.
                    let w = if rng.random::<f64>() < self.value_noise {
                        TokenId(rng.random_range(0..vocab.len() as u32))
                    } else {
                        w
                    };
                    topic.add(vocab.vector(w));
                    if self.store_values {
                        values.push(vocab.word(w));
                    }
                }
                let aid = builder.add_attribute_raw(
                    table,
                    &format!("attr{a}"),
                    topic,
                    chosen.len() as u32,
                );
                store.push(values);
                builder.add_attr_tag(aid, vocab.word(tag_words[tag_idx]));
                true_tag_word.push(tag_words[tag_idx]);
                n_attrs += 1;
            }
        }
        let lake = builder.build();
        let true_tag: Vec<TagId> = true_tag_word
            .iter()
            .map(|&w| {
                lake.tag_by_label(vocab.word(w)).unwrap_or_else(|| {
                    panic!(
                        "generator invariant: tag '{}' missing from built lake",
                        vocab.word(w)
                    )
                })
            })
            .collect();
        TagCloudBench {
            lake,
            values: store,
            model,
            true_tag,
        }
    }
}

/// A generated TagCloud benchmark: the lake, its attributes' values, the
/// embedding model that produced it, and the ground-truth tag of every
/// attribute.
pub struct TagCloudBench {
    /// The generated data lake.
    pub lake: DataLake,
    /// The raw values of the lake's attributes (empty entries unless
    /// [`TagCloudConfig::store_values`]).
    pub values: ValueStore,
    /// The synthetic embedding model (shared by search / study components).
    pub model: SyntheticEmbedding,
    /// Ground-truth tag per attribute (indexed by `AttrId`).
    pub true_tag: Vec<TagId>,
}

impl TagCloudBench {
    /// §4.3.1 enrichment: associate each attribute with one additional tag —
    /// the closest existing tag (by cosine of topic vectors) other than its
    /// ground-truth tag. Returns a new benchmark over a rebuilt lake.
    pub fn enrich(&self) -> TagCloudBench {
        let lake = &self.lake;
        let mut builder = LakeBuilder::new(lake.dim());
        let mut true_tag_labels: Vec<String> = Vec::with_capacity(lake.n_attrs());
        for tid in lake.table_ids() {
            let table = lake.table(tid);
            let nt = builder.begin_table(&table.name);
            for &aid in &table.attrs {
                let a = lake.attr(aid);
                let na = builder.add_attribute_raw(nt, &a.name, a.topic.clone(), a.n_values);
                let own = self.true_tag[aid.index()];
                // Closest other tag by unit-topic cosine.
                let unit = &a.unit_topic;
                let mut best: Option<(TagId, f32)> = None;
                for tg in lake.tag_ids() {
                    if tg == own {
                        continue;
                    }
                    let sim = dot(unit, &lake.tag(tg).unit_topic);
                    if best.map(|(_, s)| sim > s).unwrap_or(true) {
                        best = Some((tg, sim));
                    }
                }
                builder.add_attr_tag(na, &lake.tag(own).label);
                if let Some((second, _)) = best {
                    builder.add_attr_tag(na, &lake.tag(second).label);
                }
                true_tag_labels.push(lake.tag(own).label.clone());
            }
        }
        let new_lake = builder.build();
        let true_tag = true_tag_labels
            .iter()
            .map(|l| {
                new_lake.tag_by_label(l).unwrap_or_else(|| {
                    panic!("generator invariant: tag '{l}' not preserved across rebuild")
                })
            })
            .collect();
        TagCloudBench {
            lake: new_lake,
            // Same attributes in the same order, so the same ids.
            values: self.values.clone(),
            model: self.model.clone(),
            true_tag,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dln_embed::cosine;

    fn bench() -> TagCloudBench {
        TagCloudConfig::small().generate()
    }

    #[test]
    fn respects_targets() {
        let b = bench();
        assert_eq!(b.lake.n_attrs(), 200);
        assert!(b.lake.n_tags() <= 30);
        assert!(
            b.lake.n_tables() >= 10,
            "Zipf table sizes imply many tables"
        );
        assert_eq!(b.true_tag.len(), b.lake.n_attrs());
    }

    #[test]
    fn every_attribute_has_exactly_one_tag() {
        let b = bench();
        for aid in b.lake.attr_ids() {
            assert_eq!(b.lake.attr_tags(aid).len(), 1);
            assert_eq!(b.lake.attr_tags(aid)[0], b.true_tag[aid.index()]);
        }
    }

    #[test]
    fn attribute_topics_are_close_to_their_tag() {
        // With embedding noise, individual small attributes can drift, but
        // the population must stay tightly anchored on its tag.
        let b = bench();
        let mut sims = Vec::new();
        for aid in b.lake.attr_ids() {
            let a = b.lake.attr(aid);
            let own = b.lake.tag(b.true_tag[aid.index()]);
            sims.push(cosine(&a.unit_topic, &own.unit_topic));
        }
        let mean: f32 = sims.iter().sum::<f32>() / sims.len() as f32;
        assert!(mean > 0.8, "mean attr-to-tag similarity too low: {mean}");
        let below = sims.iter().filter(|&&s| s < 0.5).count();
        assert!(
            below * 10 < sims.len(),
            "too many outlier attributes ({below}/{})",
            sims.len()
        );
    }

    #[test]
    fn own_tag_is_most_similar_tag_for_most_attrs() {
        let b = bench();
        let mut correct = 0usize;
        for aid in b.lake.attr_ids() {
            let a = b.lake.attr(aid);
            let best = b
                .lake
                .tag_ids()
                .max_by(|x, y| {
                    cosine(&a.unit_topic, &b.lake.tag(*x).unit_topic)
                        .partial_cmp(&cosine(&a.unit_topic, &b.lake.tag(*y).unit_topic))
                        .unwrap()
                })
                .unwrap();
            if best == b.true_tag[aid.index()] {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / b.lake.n_attrs() as f64 > 0.95,
            "ground-truth tag should win for nearly all attributes ({correct}/200)"
        );
    }

    #[test]
    fn value_counts_within_range() {
        let b = bench();
        assert_eq!(b.values.len(), b.lake.n_attrs());
        for aid in b.lake.attr_ids() {
            let a = b.lake.attr(aid);
            assert!((5..=40).contains(&(a.n_values as usize)));
            assert_eq!(b.values.get(aid).len(), a.n_values as usize);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = bench();
        let b = bench();
        assert_eq!(a.lake.n_tables(), b.lake.n_tables());
        assert_eq!(a.true_tag, b.true_tag);
    }

    #[test]
    fn enrich_adds_a_second_tag() {
        let b = bench().enrich();
        for aid in b.lake.attr_ids() {
            let tags = b.lake.attr_tags(aid);
            assert_eq!(tags.len(), 2, "enriched attrs carry two tags");
            assert!(tags.contains(&b.true_tag[aid.index()]));
        }
    }

    #[test]
    fn enrich_preserves_topics() {
        let orig = bench();
        let enr = orig.enrich();
        assert_eq!(orig.lake.n_attrs(), enr.lake.n_attrs());
        for aid in orig.lake.attr_ids() {
            assert_eq!(
                orig.lake.attr(aid).topic.count(),
                enr.lake.attr(aid).topic.count()
            );
        }
    }

    #[test]
    fn scaled_changes_counts() {
        let c = TagCloudConfig::small().scaled(0.5);
        assert_eq!(c.n_tags, 15);
        assert_eq!(c.n_attrs_target, 100);
    }
}
