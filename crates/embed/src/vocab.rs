//! Synthetic topic-structured vocabulary.
//!
//! The TagCloud benchmark (paper §4.1) is built by sampling words from the
//! fastText vocabulary: tags are words that are "not very close" in cosine
//! space, and each attribute's domain is the `k` most similar words to its
//! tag. To reproduce that without the proprietary fastText binary, this
//! module generates a vocabulary with the same geometry: `n_topics` topic
//! centres drawn uniformly at random on the unit sphere, and
//! `words_per_topic` words per topic sampled as
//! `normalize(centre + sigma * gaussian_noise)`.
//!
//! In a 50+ dimensional space, random unit vectors are near-orthogonal with
//! overwhelming probability, so distinct topics are well separated while
//! same-topic words have cosine ≈ 1/(1+sigma²) to their centre — exactly the
//! structure the paper's generator induces by taking nearest neighbours of a
//! word.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// Identifier of a word in a [`Vocabulary`] (dense, 0-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenId(pub u32);

impl TokenId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Configuration for synthetic vocabulary generation.
#[derive(Clone, Debug)]
pub struct VocabularyConfig {
    /// Number of topic centres.
    pub n_topics: usize,
    /// Number of words generated around each topic centre.
    pub words_per_topic: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Intra-topic spread: the expected L2 norm of the Gaussian noise added
    /// to the unit centre before renormalization (per-component std is
    /// `sigma / sqrt(dim)`, so the geometry is dimension-independent).
    /// Cosine between two same-topic words is ≈ `1 / (1 + sigma²)`; around
    /// 0.3–0.6 gives realistic word clouds.
    pub sigma: f32,
    /// Hierarchical correlation: when > 0, topic centres are themselves
    /// clustered around this many *supertopic* centres instead of being
    /// drawn independently on the sphere. Real word-embedding spaces are
    /// strongly correlated (fastText words about fisheries, food
    /// inspection and agriculture all live in one region), which is what
    /// makes navigation genuinely hard; independent topics are
    /// near-orthogonal in high dimension and would make every hierarchy
    /// trivially easy to walk. `0` disables the hierarchy.
    pub n_supertopics: usize,
    /// Expected L2 distance of a topic centre from its supertopic centre
    /// (same normalization as `sigma`). Larger = weaker correlation.
    pub supertopic_sigma: f32,
    /// RNG seed; the whole vocabulary is a pure function of the config.
    pub seed: u64,
}

impl Default for VocabularyConfig {
    fn default() -> Self {
        VocabularyConfig {
            n_topics: 64,
            words_per_topic: 32,
            dim: 50,
            sigma: 0.35,
            n_supertopics: 0,
            supertopic_sigma: 0.7,
            seed: 0xDA7A_1A4E,
        }
    }
}

/// A synthetic word vocabulary with unit-norm embedding vectors arranged in
/// topic clusters.
#[derive(Clone, Debug)]
pub struct Vocabulary {
    dim: usize,
    /// Flattened `len × dim` matrix of unit vectors.
    vectors: Vec<f32>,
    words: Vec<String>,
    /// topic index of each word.
    topics: Vec<u32>,
    /// Flattened `n_topics × dim` matrix of topic centres (unit vectors).
    centres: Vec<f32>,
    index: std::collections::HashMap<String, TokenId>,
}

/// Draw a standard-normal sample via Box–Muller (we avoid a dependency on
/// `rand_distr`, which is outside the allowed crate set).
pub(crate) fn gaussian(rng: &mut impl Rng) -> f32 {
    loop {
        let u1: f32 = rng.random();
        if u1 <= f32::MIN_POSITIVE {
            continue;
        }
        let u2: f32 = rng.random();
        return (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
    }
}

/// Fill `out` with a uniformly random unit vector.
pub(crate) fn random_unit_vector(rng: &mut impl Rng, out: &mut [f32]) {
    loop {
        for x in out.iter_mut() {
            *x = gaussian(rng);
        }
        let n = crate::vector::l2_norm(out);
        if n > 1e-3 {
            for x in out.iter_mut() {
                *x /= n;
            }
            return;
        }
    }
}

impl Vocabulary {
    /// Generate a vocabulary from `config`. Deterministic in the config.
    pub fn generate(config: &VocabularyConfig) -> Self {
        assert!(config.n_topics > 0, "vocabulary needs at least one topic");
        assert!(config.words_per_topic > 0, "topics need at least one word");
        assert!(config.dim > 0, "embedding dimension must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n_words = config.n_topics * config.words_per_topic;
        let mut vectors = vec![0.0f32; n_words * config.dim];
        let mut centres = vec![0.0f32; config.n_topics * config.dim];
        let mut words = Vec::with_capacity(n_words);
        let mut topics = Vec::with_capacity(n_words);
        let mut centre = vec![0.0f32; config.dim];
        let component_sigma = config.sigma / (config.dim as f32).sqrt();
        // Optional supertopic layer: correlated topic centres.
        let mut super_centres: Vec<f32> = Vec::new();
        if config.n_supertopics > 0 {
            let mut sc = vec![0.0f32; config.dim];
            for _ in 0..config.n_supertopics {
                random_unit_vector(&mut rng, &mut sc);
                super_centres.extend_from_slice(&sc);
            }
        }
        let super_component_sigma = config.supertopic_sigma / (config.dim as f32).sqrt();
        for t in 0..config.n_topics {
            if config.n_supertopics > 0 {
                let s = t % config.n_supertopics;
                let base = &super_centres[s * config.dim..(s + 1) * config.dim];
                for (c, b) in centre.iter_mut().zip(base) {
                    *c = *b + super_component_sigma * gaussian(&mut rng);
                }
                crate::vector::normalize(&mut centre);
            } else {
                random_unit_vector(&mut rng, &mut centre);
            }
            centres[t * config.dim..(t + 1) * config.dim].copy_from_slice(&centre);
            for w in 0..config.words_per_topic {
                let wid = t * config.words_per_topic + w;
                let slot = &mut vectors[wid * config.dim..(wid + 1) * config.dim];
                for (s, c) in slot.iter_mut().zip(&centre) {
                    *s = *c + component_sigma * gaussian(&mut rng);
                }
                crate::vector::normalize(slot);
                words.push(format!("t{t:03}w{w:04}"));
                topics.push(t as u32);
            }
        }
        let index = words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), TokenId(i as u32)))
            .collect();
        Vocabulary {
            dim: config.dim,
            vectors,
            words,
            topics,
            centres,
            index,
        }
    }

    /// Number of words.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the vocabulary holds no words.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Embedding dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of topic clusters.
    #[inline]
    pub fn n_topics(&self) -> usize {
        self.centres.len() / self.dim
    }

    /// The word string for an id.
    #[inline]
    pub fn word(&self, id: TokenId) -> &str {
        &self.words[id.index()]
    }

    /// Look up a word's id.
    #[inline]
    pub fn id(&self, word: &str) -> Option<TokenId> {
        self.index.get(word).copied()
    }

    /// The unit embedding vector of a word.
    #[inline]
    pub fn vector(&self, id: TokenId) -> &[f32] {
        let i = id.index() * self.dim;
        &self.vectors[i..i + self.dim]
    }

    /// The topic cluster a word was generated from.
    #[inline]
    pub fn topic_of(&self, id: TokenId) -> u32 {
        self.topics[id.index()]
    }

    /// The unit centre vector of topic `t`.
    #[inline]
    pub fn centre(&self, t: usize) -> &[f32] {
        &self.centres[t * self.dim..(t + 1) * self.dim]
    }

    /// Iterate over all `(id, word)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TokenId, &str)> {
        self.words
            .iter()
            .enumerate()
            .map(|(i, w)| (TokenId(i as u32), w.as_str()))
    }

    /// The `k` words most similar to `query` by cosine (descending). Since
    /// all word vectors are unit-norm, cosine is a plain dot product.
    ///
    /// This is the primitive the TagCloud generator uses: "we selected the k
    /// most similar words, based on Cosine similarity, to the tag" (§4.1).
    pub fn k_nearest(&self, query: &[f32], k: usize) -> Vec<(TokenId, f32)> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let q = crate::vector::normalized(query);
        let mut scored: Vec<(TokenId, f32)> = (0..self.len())
            .map(|i| {
                let id = TokenId(i as u32);
                (id, crate::vector::dot(self.vector(id), &q))
            })
            .collect();
        let k = k.min(scored.len());
        scored.select_nth_unstable_by(k.saturating_sub(1), |a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal)
        });
        scored.truncate(k);
        scored.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::{dot, l2_norm};

    fn small() -> Vocabulary {
        Vocabulary::generate(&VocabularyConfig {
            n_topics: 8,
            words_per_topic: 10,
            dim: 32,
            sigma: 0.3,
            seed: 7,
            n_supertopics: 0,
            supertopic_sigma: 0.7,
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            let id = TokenId(i as u32);
            assert_eq!(a.word(id), b.word(id));
            assert_eq!(a.vector(id), b.vector(id));
        }
    }

    #[test]
    fn vectors_are_unit_norm() {
        let v = small();
        for i in 0..v.len() {
            let n = l2_norm(v.vector(TokenId(i as u32)));
            assert!((n - 1.0).abs() < 1e-5, "word {i} has norm {n}");
        }
    }

    #[test]
    fn same_topic_words_are_closer_than_cross_topic() {
        let v = small();
        // average intra-topic vs inter-topic cosine
        let mut intra = (0.0f64, 0u64);
        let mut inter = (0.0f64, 0u64);
        for i in 0..v.len() {
            for j in (i + 1)..v.len() {
                let (a, b) = (TokenId(i as u32), TokenId(j as u32));
                let c = dot(v.vector(a), v.vector(b)) as f64;
                if v.topic_of(a) == v.topic_of(b) {
                    intra.0 += c;
                    intra.1 += 1;
                } else {
                    inter.0 += c;
                    inter.1 += 1;
                }
            }
        }
        let intra_avg = intra.0 / intra.1 as f64;
        let inter_avg = inter.0 / inter.1 as f64;
        assert!(
            intra_avg > inter_avg + 0.3,
            "intra {intra_avg} should dominate inter {inter_avg}"
        );
    }

    #[test]
    fn word_lookup_roundtrip() {
        let v = small();
        for (id, w) in v.iter() {
            assert_eq!(v.id(w), Some(id));
        }
        assert_eq!(v.id("no-such-word"), None);
    }

    #[test]
    fn k_nearest_returns_sorted_and_self_first() {
        let v = small();
        let id = TokenId(3);
        let nn = v.k_nearest(v.vector(id), 5);
        assert_eq!(nn.len(), 5);
        assert_eq!(nn[0].0, id, "a word is its own nearest neighbour");
        for w in nn.windows(2) {
            assert!(w[0].1 >= w[1].1, "scores must be descending");
        }
    }

    #[test]
    fn k_nearest_prefers_same_topic() {
        let v = small();
        let id = TokenId(0);
        let nn = v.k_nearest(v.vector(id), 6);
        let same_topic = nn
            .iter()
            .filter(|(w, _)| v.topic_of(*w) == v.topic_of(id))
            .count();
        assert!(same_topic >= 4, "expected mostly same-topic neighbours");
    }

    #[test]
    fn k_nearest_k_larger_than_vocab_is_clamped() {
        let v = small();
        let nn = v.k_nearest(v.vector(TokenId(0)), 10_000);
        assert_eq!(nn.len(), v.len());
    }

    #[test]
    fn gaussian_is_roughly_standard() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
