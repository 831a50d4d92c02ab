//! The [`EmbeddingModel`] trait and its two implementations.
//!
//! Everything downstream (topic vectors, organization construction, query
//! expansion) is generic over this trait, so the synthetic model used in the
//! reproduction and real fastText vectors are interchangeable.

use std::collections::HashMap;
use std::io::BufRead;
use std::path::Path;

use dln_fault::DlnError;

use crate::vector::TopicAccumulator;
use crate::vocab::{Vocabulary, VocabularyConfig};

/// A word-embedding model: maps word tokens to dense vectors.
pub trait EmbeddingModel: Send + Sync {
    /// Embedding dimensionality.
    fn dim(&self) -> usize;

    /// The vector for `word`, or `None` when the word is out of vocabulary
    /// (fastText covered ~70% of the values in the paper's datasets; the
    /// rest contribute nothing to topic vectors).
    fn embed(&self, word: &str) -> Option<&[f32]>;

    /// Accumulate the vectors of every embeddable token of `tokens` into a
    /// topic accumulator. Returns the number of tokens that had embeddings.
    fn accumulate<'a, I>(&self, tokens: I, acc: &mut TopicAccumulator) -> usize
    where
        I: IntoIterator<Item = &'a str>,
        Self: Sized,
    {
        let mut covered = 0;
        for t in tokens {
            if let Some(v) = self.embed(t) {
                acc.add(v);
                covered += 1;
            }
        }
        covered
    }

    /// Topic vector (sample-mean accumulator) of a token sequence.
    fn topic_of<'a, I>(&self, tokens: I) -> TopicAccumulator
    where
        I: IntoIterator<Item = &'a str>,
        Self: Sized,
    {
        let mut acc = TopicAccumulator::new(self.dim());
        self.accumulate(tokens, &mut acc);
        acc
    }
}

/// Configuration for the synthetic embedding model.
#[derive(Clone, Debug)]
pub struct SyntheticEmbeddingConfig {
    /// The underlying vocabulary geometry.
    pub vocab: VocabularyConfig,
    /// Fraction of vocabulary words that *have* embeddings. The paper
    /// observed fastText covering ~70% of text-attribute values; setting
    /// this below 1.0 reproduces that partial coverage.
    pub coverage: f64,
    /// Seed for the coverage mask (independent of the vocabulary seed).
    pub coverage_seed: u64,
}

impl Default for SyntheticEmbeddingConfig {
    fn default() -> Self {
        SyntheticEmbeddingConfig {
            vocab: VocabularyConfig::default(),
            coverage: 1.0,
            coverage_seed: 0xC0FE,
        }
    }
}

/// Deterministic synthetic embedding model over a topic-structured
/// [`Vocabulary`].
///
/// Substitutes for fastText in this reproduction; see `DESIGN.md` §1.
#[derive(Clone)]
pub struct SyntheticEmbedding {
    vocab: Vocabulary,
    /// `covered[i] == false` simulates an out-of-vocabulary word.
    covered: Vec<bool>,
}

/// A small splitmix64 for deterministic per-word coverage decisions.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl SyntheticEmbedding {
    /// Build the model from a config. Fully deterministic.
    pub fn new(config: &SyntheticEmbeddingConfig) -> Self {
        let vocab = Vocabulary::generate(&config.vocab);
        let covered = (0..vocab.len())
            .map(|i| {
                let h = splitmix64(config.coverage_seed ^ (i as u64).wrapping_mul(0x9E3779B1));
                (h as f64 / u64::MAX as f64) < config.coverage
            })
            .collect();
        SyntheticEmbedding { vocab, covered }
    }

    /// Convenience: full-coverage model with the default geometry.
    pub fn with_vocab_config(vocab: VocabularyConfig) -> Self {
        Self::new(&SyntheticEmbeddingConfig {
            vocab,
            coverage: 1.0,
            coverage_seed: 0,
        })
    }

    /// The underlying vocabulary (used by generators and query expansion).
    #[inline]
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Fraction of vocabulary words with embeddings.
    pub fn coverage(&self) -> f64 {
        if self.covered.is_empty() {
            return 0.0;
        }
        self.covered.iter().filter(|c| **c).count() as f64 / self.covered.len() as f64
    }
}

impl EmbeddingModel for SyntheticEmbedding {
    fn dim(&self) -> usize {
        self.vocab.dim()
    }

    fn embed(&self, word: &str) -> Option<&[f32]> {
        let id = self.vocab.id(word)?;
        if self.covered[id.index()] {
            Some(self.vocab.vector(id))
        } else {
            None
        }
    }
}

/// An embedding model loaded from a fastText/GloVe text `.vec` file:
/// optionally a `count dim` header line, then one `word v1 v2 ... vd` line
/// per word.
#[derive(Debug)]
pub struct VecFileModel {
    dim: usize,
    vectors: Vec<f32>,
    index: HashMap<String, u32>,
}

/// Per-category counters for one `.vec` load: how many rows were loaded
/// and how many were quarantined, by reason. Real fastText dumps contain
/// a few malformed rows (truncated lines, `nan` values, duplicates); the
/// loader skips them, counts them here, and only errors when *nothing*
/// loads.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VecLoadReport {
    /// Rows that became embeddings.
    pub rows_loaded: usize,
    /// `count dim` header lines recognized and skipped.
    pub header_lines: usize,
    /// Rows whose values failed to parse as numbers.
    pub unparseable_rows: usize,
    /// Rows whose arity disagreed with the established dimension
    /// (typically a truncated final line).
    pub dim_mismatch_rows: usize,
    /// Rows containing a NaN or infinite component. A non-finite vector
    /// would silently poison every topic mean it touches downstream, so
    /// these are quarantined even though they *parse*.
    pub non_finite_rows: usize,
    /// Rows repeating an already-loaded word (first occurrence wins).
    pub duplicate_words: usize,
}

impl VecLoadReport {
    /// Total rows quarantined (skipped for any reason except headers).
    pub fn total_quarantined(&self) -> usize {
        self.unparseable_rows + self.dim_mismatch_rows + self.non_finite_rows + self.duplicate_words
    }
}

impl VecFileModel {
    /// Parse a `.vec`-format stream.
    ///
    /// Lines that do not match the expected arity are skipped (real fastText
    /// dumps contain a few malformed rows). Returns an error only if no
    /// valid rows are found.
    pub fn from_reader<R: BufRead>(reader: R) -> std::io::Result<Self> {
        Self::from_reader_report(reader)
            .map(|(m, _)| m)
            .map_err(std::io::Error::from)
    }

    /// Parse a `.vec`-format stream, quarantining malformed rows into a
    /// [`VecLoadReport`] instead of aborting: unparseable rows, truncated
    /// rows (arity/dimension mismatch), rows with NaN/infinite components,
    /// and duplicate words are counted and skipped. Errors only on IO
    /// failure or when no valid row is found at all.
    fn from_reader_report<R: BufRead>(reader: R) -> Result<(Self, VecLoadReport), DlnError> {
        let mut report = VecLoadReport::default();
        let mut dim = 0usize;
        let mut vectors: Vec<f32> = Vec::new();
        let mut index = HashMap::new();
        for line in reader.lines() {
            let line = line.map_err(|e| DlnError::io("reading .vec stream", e))?;
            let mut parts = line.split_whitespace();
            let Some(word) = parts.next() else { continue };
            let rest: Vec<&str> = parts.collect();
            if rest.is_empty() {
                report.unparseable_rows += 1;
                continue;
            }
            // Header line: "count dim".
            if dim == 0 && rest.len() == 1 && word.parse::<u64>().is_ok() {
                report.header_lines += 1;
                continue;
            }
            let parsed: Option<Vec<f32>> = rest.iter().map(|s| s.parse::<f32>().ok()).collect();
            let Some(vals) = parsed else {
                report.unparseable_rows += 1;
                continue;
            };
            // `parse::<f32>` accepts "NaN"/"inf"; a non-finite component
            // must not reach topic accumulators.
            if vals.iter().any(|v| !v.is_finite()) {
                report.non_finite_rows += 1;
                continue;
            }
            if dim == 0 {
                dim = vals.len();
            }
            if vals.len() != dim {
                report.dim_mismatch_rows += 1;
                continue;
            }
            if index.contains_key(word) {
                report.duplicate_words += 1;
                continue;
            }
            index.insert(word.to_string(), (vectors.len() / dim) as u32);
            vectors.extend_from_slice(&vals);
            report.rows_loaded += 1;
        }
        if dim == 0 {
            return Err(DlnError::malformed(
                ".vec stream",
                format!(
                    "no valid embedding rows found ({} quarantined)",
                    report.total_quarantined()
                ),
            ));
        }
        Ok((
            VecFileModel {
                dim,
                vectors,
                index,
            },
            report,
        ))
    }

    /// Load from a file path.
    pub fn from_path(path: &Path) -> std::io::Result<Self> {
        Self::from_path_report(path)
            .map(|(m, _)| m)
            .map_err(std::io::Error::from)
    }

    /// Load from a file path, returning the quarantine report.
    pub fn from_path_report(path: &Path) -> Result<(Self, VecLoadReport), DlnError> {
        let file = std::fs::File::open(path)
            .map_err(|e| DlnError::io(format!("opening {}", path.display()), e))?;
        Self::from_reader_report(std::io::BufReader::new(file))
    }

    /// Number of words loaded.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no words were loaded.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

impl EmbeddingModel for VecFileModel {
    fn dim(&self) -> usize {
        self.dim
    }

    fn embed(&self, word: &str) -> Option<&[f32]> {
        let i = *self.index.get(word)? as usize;
        Some(&self.vectors[i * self.dim..(i + 1) * self.dim])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::l2_norm;
    use crate::vocab::TokenId;

    impl SyntheticEmbedding {
        /// Whether a vocabulary word has an embedding under the coverage
        /// mask.
        fn is_covered(&self, id: TokenId) -> bool {
            self.covered[id.index()]
        }
    }

    fn model(coverage: f64) -> SyntheticEmbedding {
        SyntheticEmbedding::new(&SyntheticEmbeddingConfig {
            vocab: VocabularyConfig {
                n_topics: 6,
                words_per_topic: 10,
                dim: 24,
                sigma: 0.3,
                seed: 11,
                n_supertopics: 0,
                supertopic_sigma: 0.7,
            },
            coverage,
            coverage_seed: 5,
        })
    }

    #[test]
    fn embed_known_word() {
        let m = model(1.0);
        let (id, word) = m
            .vocab()
            .iter()
            .next()
            .map(|(i, w)| (i, w.to_string()))
            .unwrap();
        let v = m.embed(&word).expect("covered word must embed");
        assert_eq!(v, m.vocab().vector(id));
        assert!((l2_norm(v) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn embed_unknown_word_is_none() {
        let m = model(1.0);
        assert!(m.embed("definitely-not-a-word").is_none());
    }

    #[test]
    fn coverage_mask_reduces_embeddable_words() {
        let m = model(0.7);
        let c = m.coverage();
        assert!((0.5..0.9).contains(&c), "coverage {c} should be near 0.7");
        // an uncovered word embeds to None
        let uncovered = m
            .vocab()
            .iter()
            .find(|(id, _)| !m.is_covered(*id))
            .map(|(_, w)| w.to_string())
            .expect("some word should be uncovered");
        assert!(m.embed(&uncovered).is_none());
    }

    #[test]
    fn coverage_is_deterministic() {
        let a = model(0.7);
        let b = model(0.7);
        for (id, _) in a.vocab().iter() {
            assert_eq!(a.is_covered(id), b.is_covered(id));
        }
    }

    #[test]
    fn topic_of_averages_tokens() {
        let m = model(1.0);
        let w0 = m.vocab().word(crate::vocab::TokenId(0)).to_string();
        let w1 = m.vocab().word(crate::vocab::TokenId(1)).to_string();
        let acc = m.topic_of([w0.as_str(), w1.as_str(), "zzz-unknown"]);
        assert_eq!(acc.count(), 2, "unknown token must not count");
        let mean = acc.mean();
        let v0 = m.vocab().vector(crate::vocab::TokenId(0));
        let v1 = m.vocab().vector(crate::vocab::TokenId(1));
        for i in 0..mean.len() {
            assert!((mean[i] - (v0[i] + v1[i]) / 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn vec_file_roundtrip() {
        let data = "3 4\nfoo 1 0 0 0\nbar 0 1 0 0\nbaz 0 0 0.5 0.5\nmalformed 1 2\n";
        let m = VecFileModel::from_reader(std::io::Cursor::new(data)).unwrap();
        assert_eq!(m.dim(), 4);
        assert_eq!(m.len(), 3);
        assert_eq!(m.embed("foo").unwrap(), &[1.0, 0.0, 0.0, 0.0]);
        assert_eq!(m.embed("baz").unwrap(), &[0.0, 0.0, 0.5, 0.5]);
        assert!(m.embed("malformed").is_none());
        assert!(m.embed("qux").is_none());
    }

    #[test]
    fn vec_file_without_header() {
        let data = "foo 1 0\nbar 0 1\n";
        let m = VecFileModel::from_reader(std::io::Cursor::new(data)).unwrap();
        assert_eq!(m.dim(), 2);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn vec_file_empty_is_error() {
        assert!(VecFileModel::from_reader(std::io::Cursor::new("")).is_err());
    }

    #[test]
    fn vec_file_report_counts_quarantined_rows() {
        // header, 2 good rows, a NaN row, an inf row, a truncated row, a
        // duplicate, and an unparseable row.
        let data = "7 3\n\
                    foo 1 0 0\n\
                    bar 0 1 0\n\
                    poisoned NaN 0 0\n\
                    hot inf 0 1\n\
                    cut 1 0\n\
                    foo 9 9 9\n\
                    junk x y z\n";
        let (m, report) = VecFileModel::from_reader_report(std::io::Cursor::new(data)).unwrap();
        assert_eq!(m.dim(), 3);
        assert_eq!(m.len(), 2);
        assert_eq!(report.rows_loaded, 2);
        assert_eq!(report.header_lines, 1);
        assert_eq!(report.non_finite_rows, 2, "NaN and inf rows quarantined");
        assert_eq!(report.dim_mismatch_rows, 1);
        assert_eq!(report.duplicate_words, 1);
        assert_eq!(report.unparseable_rows, 1);
        assert_eq!(report.total_quarantined(), 5);
        // The NaN vector must not be loadable: it would poison every topic
        // mean it touches.
        assert!(m.embed("poisoned").is_none());
        assert_eq!(m.embed("foo").unwrap(), &[1.0, 0.0, 0.0], "first wins");
    }

    #[test]
    fn vec_file_all_rows_quarantined_is_typed_error() {
        let data = "bad NaN NaN\nworse inf inf\n";
        let err = VecFileModel::from_reader_report(std::io::Cursor::new(data)).unwrap_err();
        assert!(matches!(err, dln_fault::DlnError::Malformed { .. }));
        // The io::Result wrapper downgrades it to InvalidData.
        let io_err = VecFileModel::from_reader(std::io::Cursor::new(data)).unwrap_err();
        assert_eq!(io_err.kind(), std::io::ErrorKind::InvalidData);
    }
}
