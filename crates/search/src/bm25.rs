//! BM25 ranking (Robertson/Spärck Jones; the function Xapian implements
//! and the paper's engine used for "BM25 document search over metadata and
//! data in tables", §4.4).

/// Term-frequency saturation (the conventional value).
const K1: f32 = 1.2;
/// Length normalization (the conventional value).
const B: f32 = 0.75;

/// The (non-negative, "plus"-floored) BM25 inverse document frequency.
#[inline]
pub fn idf(n_docs: usize, doc_freq: usize) -> f32 {
    let n = n_docs as f32;
    let df = doc_freq as f32;
    ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
}

/// The per-document BM25 term score.
#[inline]
pub fn term_score(tf: f32, doc_len: f32, avg_doc_len: f32) -> f32 {
    let denom = tf + K1 * (1.0 - B + B * doc_len / avg_doc_len.max(1e-9));
    tf * (K1 + 1.0) / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idf_decreases_with_document_frequency() {
        assert!(idf(100, 1) > idf(100, 10));
        assert!(idf(100, 10) > idf(100, 90));
        assert!(idf(100, 100) > 0.0, "plus-floored IDF stays positive");
    }

    #[test]
    fn term_score_saturates_in_tf() {
        let s1 = term_score(1.0, 100.0, 100.0);
        let s2 = term_score(2.0, 100.0, 100.0);
        let s10 = term_score(10.0, 100.0, 100.0);
        assert!(s2 > s1);
        assert!(s10 - s2 < (s2 - s1) * 9.0, "diminishing returns");
        assert!(s10 < K1 + 1.0 + 1e-6, "bounded by k1 + 1");
    }

    #[test]
    fn longer_documents_are_penalized() {
        let short = term_score(2.0, 50.0, 100.0);
        let long = term_score(2.0, 400.0, 100.0);
        assert!(short > long);
    }

    #[test]
    fn zero_tf_scores_zero() {
        assert_eq!(term_score(0.0, 10.0, 10.0), 0.0);
    }
}
