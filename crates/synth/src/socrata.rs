//! A Socrata-like open-data lake generator.
//!
//! The paper's comparison study runs on a crawl of the Socrata open-data
//! network: 7,553 tables, 11,083 tags, 50,879 attributes with embeddable
//! words, and 264,199 attribute–tag associations; tags-per-table and
//! attributes-per-table are heavily skewed ("the majority of the tables
//! having 25 or fewer" tags, §4.1). The crawl itself is not available, so
//! this generator reproduces those *published statistics* (the quantities
//! the organization algorithm is actually sensitive to — metadata skew,
//! multi-tagging, topic heterogeneity, partial embedding coverage) at a
//! configurable scale. See `DESIGN.md` §1 for the substitution argument.
//!
//! Generation model:
//!
//! * tags are assigned to vocabulary topics with Zipf-skewed topic
//!   popularity (several tags per topic, mimicking near-synonym portal
//!   keywords such as "health" / "healthcare" / "public health");
//! * each table draws a Zipfian *home topic*, a Zipfian attribute count and
//!   a Zipfian tag count; attributes sample values mostly from the home
//!   topic with occasional foreign-topic attributes (real tables mix
//!   concerns); table tags are drawn from the topics of its attributes,
//!   with a configurable mislabeling rate of uniformly random tags ("tags
//!   may be incomplete or inconsistent", §4.1);
//! * the embedding model covers only a fraction of words (70% by default,
//!   the paper's observed fastText coverage).

use dln_embed::{
    EmbeddingModel, SyntheticEmbedding, SyntheticEmbeddingConfig, TokenId, TopicAccumulator,
    VocabularyConfig,
};
use dln_lake::{DataLake, LakeBuilder, ValueStore, Values};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::zipf::Zipf;

/// Configuration of the Socrata-like generator.
#[derive(Clone, Debug)]
pub struct SocrataConfig {
    /// Number of tables. Paper crawl: 7,553.
    pub n_tables: usize,
    /// Number of distinct tags. Paper crawl: 11,083.
    pub n_tags: usize,
    /// Number of vocabulary topics (tags per topic ≈ n_tags / n_topics).
    pub n_topics: usize,
    /// Words per vocabulary topic.
    pub words_per_topic: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Intra-topic spread of the vocabulary.
    pub sigma: f32,
    /// Supertopic count (correlated topic centres; see
    /// `dln_embed::VocabularyConfig::n_supertopics`).
    pub n_supertopics: usize,
    /// Spread of topic centres around their supertopic centre.
    pub supertopic_sigma: f32,
    /// Fraction of words with embeddings (paper: ≈0.7 fastText coverage).
    pub coverage: f64,
    /// Zipf over attributes per table: support `1..=max`, exponent `s`.
    pub attrs_per_table_max: usize,
    /// Exponent of the attributes-per-table Zipf (1.3 ⇒ mean ≈ 6.7 for
    /// max = 50, matching 50,879 attrs over 7,553 tables).
    pub attrs_per_table_zipf_s: f64,
    /// Zipf over tags per table: support `1..=max`, exponent `s`.
    pub tags_per_table_max: usize,
    /// Exponent of the tags-per-table Zipf (1.5 ⇒ mean ≈ 5.2 for max = 60,
    /// matching 264,199 associations over 50,879 attributes).
    pub tags_per_table_zipf_s: f64,
    /// Zipf exponent of topic popularity (drives the skewed dimension sizes
    /// of Table 1).
    pub topic_popularity_zipf_s: f64,
    /// Values per attribute, uniform in `[values_min, values_max]`.
    pub values_min: usize,
    /// Upper bound of values per attribute.
    pub values_max: usize,
    /// Probability that an attribute samples from a random topic instead of
    /// the table's home topic.
    pub foreign_attr_rate: f64,
    /// Probability that a table tag is uniformly random instead of drawn
    /// from the topics of the table's attributes (metadata noise).
    pub mislabel_rate: f64,
    /// RNG seed.
    pub seed: u64,
    /// Whether the lake's [`ValueStore`] keeps raw values (else every
    /// attribute's entry is empty).
    pub store_values: bool,
}

impl SocrataConfig {
    /// Full paper-scale configuration (7,553 tables / 11,083 tags).
    /// Construction of a 10-dimensional organization at this scale is a
    /// long-running job (the paper reports 12 hours on their setup); the
    /// experiment binaries default to [`SocrataConfig::scaled`] variants.
    pub fn paper() -> SocrataConfig {
        SocrataConfig {
            n_tables: 7_553,
            n_tags: 11_083,
            n_topics: 800,
            words_per_topic: 250,
            dim: 50,
            sigma: 0.4,
            n_supertopics: 50,
            supertopic_sigma: 0.8,
            coverage: 0.7,
            attrs_per_table_max: 50,
            attrs_per_table_zipf_s: 1.3,
            tags_per_table_max: 60,
            tags_per_table_zipf_s: 1.5,
            topic_popularity_zipf_s: 1.0,
            values_min: 10,
            values_max: 200,
            foreign_attr_rate: 0.2,
            mislabel_rate: 0.05,
            seed: 0x50C2_A7A0,
            store_values: false,
        }
    }

    /// Reduced-scale lake for tests and quick experiments (≈150 tables).
    pub fn small() -> SocrataConfig {
        SocrataConfig {
            n_tables: 150,
            n_tags: 220,
            n_topics: 40,
            words_per_topic: 60,
            dim: 32,
            sigma: 0.4,
            n_supertopics: 8,
            supertopic_sigma: 0.8,
            coverage: 0.7,
            attrs_per_table_max: 20,
            attrs_per_table_zipf_s: 1.2,
            tags_per_table_max: 12,
            tags_per_table_zipf_s: 1.4,
            topic_popularity_zipf_s: 1.0,
            values_min: 5,
            values_max: 40,
            foreign_attr_rate: 0.2,
            mislabel_rate: 0.05,
            seed: 0x50C2_A7A0,
            store_values: true,
        }
    }

    /// Scale table / tag / topic counts by `f`.
    pub fn scaled(mut self, f: f64) -> SocrataConfig {
        assert!(f > 0.0, "scale factor must be positive");
        self.n_tables = ((self.n_tables as f64 * f).round() as usize).max(4);
        self.n_tags = ((self.n_tags as f64 * f).round() as usize).max(4);
        self.n_topics = ((self.n_topics as f64 * f).round() as usize).max(2);
        self
    }

    /// Generate the lake.
    pub fn generate(&self) -> SocrataLake {
        assert!(self.n_topics >= 2, "need at least two topics");
        assert!(
            self.n_tags >= self.n_topics,
            "need at least one tag per topic"
        );
        let model = SyntheticEmbedding::new(&SyntheticEmbeddingConfig {
            vocab: VocabularyConfig {
                n_topics: self.n_topics,
                words_per_topic: self.words_per_topic,
                dim: self.dim,
                sigma: self.sigma,
                n_supertopics: self.n_supertopics,
                supertopic_sigma: self.supertopic_sigma,
                seed: self.seed ^ 0xFEED_F00D,
            },
            coverage: self.coverage,
            coverage_seed: self.seed ^ 0xC07E_4A6E,
        });
        let vocab = model.vocab();
        let mut rng = StdRng::seed_from_u64(self.seed);

        // --- Tag pool: Zipf-skewed assignment of tags to topics. ---
        let topic_zipf = Zipf::new(self.n_topics, self.topic_popularity_zipf_s);
        let mut tag_topic: Vec<usize> = Vec::with_capacity(self.n_tags);
        // Guarantee every topic owns at least one tag, then skew the rest.
        for t in 0..self.n_topics.min(self.n_tags) {
            tag_topic.push(t);
        }
        while tag_topic.len() < self.n_tags {
            tag_topic.push(topic_zipf.sample(&mut rng) - 1);
        }
        let tag_labels: Vec<String> = tag_topic
            .iter()
            .enumerate()
            .map(|(i, &t)| format!("tag-{t:04}-{i:05}"))
            .collect();
        let mut tags_of_topic: Vec<Vec<usize>> = vec![Vec::new(); self.n_topics];
        for (i, &t) in tag_topic.iter().enumerate() {
            tags_of_topic[t].push(i);
        }

        // --- Tables. ---
        let attrs_zipf = Zipf::new(self.attrs_per_table_max, self.attrs_per_table_zipf_s);
        let tags_zipf = Zipf::new(self.tags_per_table_max, self.tags_per_table_zipf_s);
        let mut builder = LakeBuilder::new(self.dim);
        let mut store = ValueStore::new();
        for ti in 0..self.n_tables {
            let table = builder.begin_table(&format!("dataset{ti:05}"));
            let home = topic_zipf.sample(&mut rng) - 1;
            let n_attrs = attrs_zipf.sample(&mut rng);
            let mut attr_topics: Vec<usize> = Vec::with_capacity(n_attrs);
            for a in 0..n_attrs {
                let topic = if rng.random::<f64>() < self.foreign_attr_rate {
                    rng.random_range(0..self.n_topics)
                } else {
                    home
                };
                attr_topics.push(topic);
                let k = rng.random_range(self.values_min..=self.values_max);
                let mut topic_acc = TopicAccumulator::new(self.dim);
                let mut values = Values::new();
                let mut n_values = 0u32;
                for _ in 0..k {
                    let w = TokenId(
                        (topic * self.words_per_topic + rng.random_range(0..self.words_per_topic))
                            as u32,
                    );
                    n_values += 1;
                    // Respect the coverage mask: uncovered words contribute
                    // no vector, exactly as an out-of-fastText value would.
                    if let Some(v) = model.embed(vocab.word(w)) {
                        topic_acc.add(v);
                    }
                    if self.store_values {
                        values.push(vocab.word(w));
                    }
                }
                builder.add_attribute_raw(table, &format!("col{a}"), topic_acc, n_values);
                store.push(values);
            }
            // Table tags: drawn from attribute topics, plus mislabeling noise.
            let n_table_tags = tags_zipf.sample(&mut rng);
            for _ in 0..n_table_tags {
                let tag = if rng.random::<f64>() < self.mislabel_rate || attr_topics.is_empty() {
                    rng.random_range(0..self.n_tags)
                } else {
                    let topic = attr_topics[rng.random_range(0..attr_topics.len())];
                    let pool = &tags_of_topic[topic];
                    if pool.is_empty() {
                        rng.random_range(0..self.n_tags)
                    } else {
                        pool[rng.random_range(0..pool.len())]
                    }
                };
                builder.add_tag(table, &tag_labels[tag]);
            }
        }
        SocrataLake {
            lake: builder.build(),
            values: store,
            model,
        }
    }
}

/// A generated Socrata-like lake, its attributes' values, and the
/// embedding model behind it.
pub struct SocrataLake {
    /// The generated lake.
    pub lake: DataLake,
    /// The raw values of the lake's attributes (empty entries unless
    /// [`SocrataConfig::store_values`]).
    pub values: ValueStore,
    /// The synthetic embedding model (for search / study components).
    pub model: SyntheticEmbedding,
}

impl SocrataLake {
    /// Carve two *tag-disjoint* sub-lakes in the style of the user study's
    /// Socrata-2 / Socrata-3 (§4.1: "Socrata-2 and Socrata-3 do not share
    /// any tags"). Topics are split into two halves; every table goes to
    /// the side owning the majority of its tags, and tags from the opposite
    /// side are dropped from it, guaranteeing disjoint tag sets. Each side
    /// comes with the values of its attributes.
    pub fn split_disjoint(&self, seed: u64) -> ((DataLake, ValueStore), (DataLake, ValueStore)) {
        let lake = &self.lake;
        let mut rng = StdRng::seed_from_u64(seed);
        // Random half of the tags by label hash → stable side per tag.
        let mut side_of_tag: Vec<bool> = (0..lake.n_tags()).map(|_| rng.random()).collect();
        if side_of_tag.iter().all(|&s| s) {
            side_of_tag[0] = false;
        }
        if side_of_tag.iter().all(|&s| !s) {
            side_of_tag[0] = true;
        }
        let mut sides = [
            (LakeBuilder::new(lake.dim()), ValueStore::new()),
            (LakeBuilder::new(lake.dim()), ValueStore::new()),
        ];
        for tid in lake.table_ids() {
            let table = lake.table(tid);
            if table.tags.is_empty() {
                continue;
            }
            let n_side1 = table.tags.iter().filter(|t| side_of_tag[t.index()]).count();
            let to_side1 = n_side1 * 2 > table.tags.len();
            let (b, store) = &mut sides[usize::from(to_side1)];
            let nt = b.begin_table(&table.name);
            for &tg in &table.tags {
                if side_of_tag[tg.index()] == to_side1 {
                    b.add_tag(nt, &lake.tag(tg).label);
                }
            }
            for &aid in &table.attrs {
                let a = lake.attr(aid);
                b.add_attribute_raw(nt, &a.name, a.topic.clone(), a.n_values);
                store.push(self.values.get(aid).clone());
            }
        }
        let [(b0, v0), (b1, v1)] = sides;
        ((b0.build(), v0), (b1.build(), v1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Does a lake's shape match the paper's published Socrata statistics
    /// within tolerance?
    fn matches_paper_shape(lake: &DataLake, scale: f64, tolerance: f64) -> Result<(), String> {
        let stats = lake.stats();
        let expect_tables = 7_553.0 * scale;
        let expect_tags = 11_083.0 * scale;
        let check = |name: &str, got: f64, want: f64| -> Result<(), String> {
            if want == 0.0 {
                return Ok(());
            }
            let rel = (got - want).abs() / want;
            if rel <= tolerance {
                Ok(())
            } else {
                Err(format!(
                    "{name}: got {got:.0}, want ≈{want:.0} (rel err {rel:.2})"
                ))
            }
        };
        check("tables", stats.n_tables as f64, expect_tables)?;
        check("tags", stats.n_tags as f64, expect_tags)?;
        Ok(())
    }

    fn lake() -> SocrataLake {
        SocrataConfig::small().generate()
    }

    #[test]
    fn counts_match_config() {
        let s = lake();
        assert_eq!(s.lake.n_tables(), 150);
        // Some generated tags may never be attached to a table; allow slack.
        assert!(s.lake.n_tags() <= 220);
        assert!(s.lake.n_tags() > 50);
        assert!(s.lake.n_attrs() > 300, "Zipf mean ≈ 4+ attrs per table");
    }

    #[test]
    fn skewed_distributions() {
        let s = lake();
        let st = s.lake.stats();
        // Zipf skew: max well above median.
        assert!(st.attrs_per_table.max >= 3 * st.attrs_per_table.median.max(1));
        assert!(st.tags_per_table.max >= 2 * st.tags_per_table.median.max(1));
    }

    #[test]
    fn coverage_near_config() {
        let s = lake();
        let st = s.lake.stats();
        assert!(
            (st.mean_embedding_coverage - 0.7).abs() < 0.1,
            "coverage {}",
            st.mean_embedding_coverage
        );
    }

    #[test]
    fn multi_tag_attributes_exist() {
        let s = lake();
        let multi = s
            .lake
            .attr_ids()
            .filter(|&a| s.lake.attr_tags(a).len() > 1)
            .count();
        assert!(multi > 0, "attributes should inherit multiple table tags");
    }

    #[test]
    fn deterministic() {
        let a = SocrataConfig::small().generate();
        let b = SocrataConfig::small().generate();
        assert_eq!(a.lake.n_attrs(), b.lake.n_attrs());
        assert_eq!(a.lake.n_tags(), b.lake.n_tags());
    }

    #[test]
    fn split_disjoint_has_no_shared_tags() {
        let s = lake();
        let ((l2, v2), (l3, v3)) = s.split_disjoint(99);
        assert!(l2.n_tables() > 0 && l3.n_tables() > 0);
        // Each side's values follow its attributes (names are
        // `dataset<i>` / `col<j>`, unique per table).
        let by_name = |lake: &DataLake, a: dln_lake::AttrId| {
            (
                lake.table(lake.attr(a).table).name.clone(),
                lake.attr(a).name.clone(),
            )
        };
        let full: std::collections::HashMap<_, _> = s
            .lake
            .attr_ids()
            .map(|a| (by_name(&s.lake, a), s.values.get(a)))
            .collect();
        for (sub, values) in [(&l2, &v2), (&l3, &v3)] {
            assert_eq!(values.len(), sub.n_attrs());
            for a in sub.attr_ids() {
                assert_eq!(Some(&values.get(a)), full.get(&by_name(sub, a)));
            }
        }
        let tags2: std::collections::HashSet<&str> =
            l2.tags().iter().map(|t| t.label.as_str()).collect();
        for t in l3.tags() {
            assert!(!tags2.contains(t.label.as_str()), "shared tag {}", t.label);
        }
        // Tables partitioned without loss (tables with ≥1 tag).
        assert!(l2.n_tables() + l3.n_tables() <= s.lake.n_tables());
        assert!(l2.n_tables() + l3.n_tables() >= s.lake.n_tables() - 5);
    }

    #[test]
    fn scaled_config() {
        let c = SocrataConfig::paper().scaled(0.1);
        assert_eq!(c.n_tables, 755);
        assert_eq!(c.n_tags, 1108);
        assert_eq!(c.n_topics, 80);
    }

    #[test]
    fn paper_shape_check_small_scale() {
        // Generate a 2% paper-scale lake and verify the shape checker.
        let c = SocrataConfig::paper().scaled(0.02);
        let c = SocrataConfig {
            words_per_topic: 40,
            values_min: 5,
            values_max: 30,
            store_values: false,
            ..c
        };
        let s = c.generate();
        matches_paper_shape(&s.lake, 0.02, 0.35).expect("shape within tolerance");
    }
}
